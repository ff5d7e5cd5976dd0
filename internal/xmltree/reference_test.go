package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// parseReference is the encoding/xml tokenizer loop the package parsed with
// before Decode: the reference the decoder's accept/reject behaviour and trees
// are held to (FuzzDecodeEquivalence, TestDecodeMatchesParse) and the baseline
// BenchmarkParseLegacy times. Whitespace-only text between elements is
// dropped; other text is kept. Nesting past MaxDepth is refused, as Decode
// refuses it.
func parseReference(s string) (*Node, error) {
	dec := xml.NewDecoder(strings.NewReader(s))
	var stack []*Node
	var root *Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if !ElementNameOK(t.Name.Local) {
				return nil, fmt.Errorf("xmltree: parse: element name %q invalid after dropping namespace prefix", t.Name.Local)
			}
			if len(stack) == MaxDepth {
				return nil, fmt.Errorf("xmltree: parse: element nested deeper than %d levels", MaxDepth)
			}
			n := &Node{Name: t.Name.Local}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				if !ElementNameOK(a.Name.Local) {
					continue
				}
				if _, dup := n.Attr(a.Name.Local); dup {
					// Distinct namespace prefixes can collapse to the same
					// local name once prefixes are stripped; first wins, so
					// the tree never carries duplicate attribute names.
					continue
				}
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: parse: multiple root elements")
				}
				root = n
			} else {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue
			}
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue
			}
			parent := stack[len(stack)-1]
			// Adjacent text runs (the tokenizer splits them around CDATA
			// sections) merge into one node, so parsing canonical output
			// reproduces the tree exactly.
			if k := len(parent.Children); k > 0 && parent.Children[k-1].IsText() {
				parent.Children[k-1].Text += text
				continue
			}
			parent.Add(TextNode(text)) // the element's own Text while childless
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parse: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unterminated element %q", stack[len(stack)-1].Name)
	}
	return root, nil
}
