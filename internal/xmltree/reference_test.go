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
// dropped; other text is kept. It refuses what Decode refuses: nesting past
// MaxDepth, a name with a namespace prefix or any other colon, an xmlns
// attribute, a directive, and a processing instruction other than an <?xml?>
// declaration before the root element.
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
			if err := refName(t.Name); err != nil {
				return nil, err
			}
			if len(stack) == MaxDepth {
				return nil, fmt.Errorf("xmltree: parse: element nested deeper than %d levels", MaxDepth)
			}
			n := &Node{Name: t.Name.Local}
			for _, a := range t.Attr {
				if err := refName(a.Name); err != nil {
					return nil, err
				}
				if a.Name.Local == "xmlns" {
					return nil, fmt.Errorf("xmltree: parse: xmlns attribute")
				}
				if _, dup := n.Attr(a.Name.Local); dup {
					continue // first wins: the tree never carries duplicate names
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
		case xml.ProcInst:
			if t.Target != "xml" || root != nil || len(stack) != 0 {
				return nil, fmt.Errorf("xmltree: parse: processing instruction %q", t.Target)
			}
		case xml.Directive:
			return nil, fmt.Errorf("xmltree: parse: directive")
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

// refName refuses a name with a colon: a namespace prefix, or a colon
// encoding/xml leaves in the local part (":a", "a:"). The tokenizer holds the
// rest of the name to its own name class, independently of the decoder's.
func refName(name xml.Name) error {
	if name.Space != "" || strings.Contains(name.Local, ":") {
		return fmt.Errorf("xmltree: parse: name %q", name.Space+":"+name.Local)
	}
	return nil
}
