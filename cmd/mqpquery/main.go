// Command mqpquery submits a mutant query plan to an mqpd server and waits
// for the fully evaluated result to be routed back.
//
//	mqpquery -server 127.0.0.1:9020 -plan query.xml [-listen 127.0.0.1:0] [-timeout 30s]
//
// The plan file is an <mqp> document; its target attribute is overwritten
// with this client's listen address. Like an mqpd collection file, it may
// open with an <?xml?> declaration (version 1.0, UTF-8) and hold comments and
// CDATA sections, and it may not hold a name with a colon, an xmlns
// attribute, a <!DOCTYPE> or any other processing instruction. The plan leaves as one frame on a link
// to the server (internal/wire), and the result arrives the same way on a
// link the last server dials back.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/algebra"
	"repro/internal/wire"
	"repro/internal/xmltree"
)

func main() {
	server := flag.String("server", "127.0.0.1:9020", "first MQP server to contact")
	planFile := flag.String("plan", "", "file holding the <mqp> plan")
	listen := flag.String("listen", "127.0.0.1:0", "address to receive the result on")
	timeout := flag.Duration("timeout", 30*time.Second, "how long to wait for the result")
	flag.Parse()

	if *planFile == "" {
		log.Fatal("mqpquery: -plan is required")
	}
	f, err := os.Open(*planFile)
	if err != nil {
		log.Fatalf("mqpquery: %v", err)
	}
	plan, err := algebra.Decode(f)
	f.Close()
	if err != nil {
		log.Fatalf("mqpquery: parse plan: %v", err)
	}

	results := make(chan *algebra.Plan, 1)
	srv, err := wire.Listen(*listen, func(doc *xmltree.Node) (*xmltree.Node, error) {
		got, err := algebra.Unmarshal(doc)
		if err != nil {
			return nil, err
		}
		select {
		case results <- got:
		default:
		}
		return nil, nil
	})
	if err != nil {
		log.Fatalf("mqpquery: %v", err)
	}
	defer srv.Close()

	plan.Target = srv.Addr()
	if plan.Original == nil {
		plan.RetainOriginal()
	}
	pool := wire.NewLinkPool()
	defer pool.Close()
	if err := pool.SendFrame(*server, func(e *xmltree.FrameEncoder) {
		algebra.EncodeFrame(plan, e)
	}); err != nil {
		log.Fatalf("mqpquery: %v", err)
	}

	select {
	case res := <-results:
		items, err := res.Results()
		if err != nil {
			log.Fatalf("mqpquery: result not constant: %v", err)
		}
		if res.PartialResult() {
			fmt.Printf("<!-- partial result: %d items (sub-multiset of the full answer) -->\n", len(items))
		} else {
			fmt.Printf("<!-- %d items -->\n", len(items))
		}
		for _, it := range items {
			fmt.Println(it.Indent())
		}
	case err := <-srv.Errors():
		log.Fatalf("mqpquery: %v", err)
	case <-time.After(*timeout):
		log.Fatalf("mqpquery: timed out after %v", *timeout)
	}
}
