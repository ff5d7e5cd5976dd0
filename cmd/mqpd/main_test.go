package main

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const (
	cdsXML = `<items>
<sale><cd>Blue Train</cd><price>8</price></sale>
<sale><cd>Kind of Blue</cd><price>15</price></sale>
<sale><cd>Giant Steps</cd><price>9</price></sale>
</items>`
	tracksXML = `<?xml version="1.0" encoding="UTF-8"?>
<!-- One item per song. -->
<items>
<listing><cd>Blue Train</cd><song>Locomotion</song></listing>
<listing><cd>Blue Train</cd><song>Moment's Notice</song></listing>
<listing><cd>Giant Steps</cd><song>Naima</song></listing>
<listing><cd>Kind of Blue</cd><song>So What</song></listing>
</items>`
	// Two CDs under 10, three listings between them.
	queryXML = `<mqp id="daemon-q" target="placeholder"><plan><display>
<join leftkey="cd" leftname="sale" rightkey="cd" rightname="listing">
<select pred="price &lt; 10"><urn name="urn:Demo:CDs"/></select>
<urn name="urn:Demo:Tracks"/>
</join></display></plan></mqp>`
)

// TestDaemonsAnswerJoin runs the doc comment's example as written: three
// mqpd processes started with only the documented flags, one mqpquery against
// the alias server, and the Fig. 3 join comes back whole. It is what makes
// `go test ./...` execute main(). The tracks file opens with an XML
// declaration and a comment, which a collection file may hold.
func TestDaemonsAnswerJoin(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns mqpd and mqpquery")
	}
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir, ".", "../mqpquery")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	files := map[string]string{"cds.xml": cdsXML, "tracks.xml": tracksXML, "query.xml": queryXML}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Reserve three loopback ports by binding and releasing them.
	addrs := make([]string, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	for i, args := range [][]string{
		{"-alias", "urn:Demo:CDs=http://" + addrs[1] + "/data",
			"-alias", "urn:Demo:Tracks=http://" + addrs[2] + "/data"},
		{"-collection", "/data=" + filepath.Join(dir, "cds.xml")},
		{"-collection", "/data=" + filepath.Join(dir, "tracks.xml")},
	} {
		logf, err := os.Create(filepath.Join(dir, addrs[i]+".stderr"))
		if err != nil {
			t.Fatal(err)
		}
		defer logf.Close()
		d := exec.Command(filepath.Join(dir, "mqpd"), append([]string{"-addr", addrs[i]}, args...)...)
		d.Stderr = logf
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			d.Process.Kill()
			d.Wait()
		}()
	}
	for _, addr := range addrs {
		deadline := time.Now().Add(10 * time.Second)
		for {
			conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("mqpd on %s never accepted: %v", addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	q := exec.Command(filepath.Join(dir, "mqpquery"), "-server", addrs[0],
		"-plan", filepath.Join(dir, "query.xml"), "-timeout", "10s")
	out, err := q.CombinedOutput()
	if err != nil {
		for _, addr := range addrs {
			logged, _ := os.ReadFile(filepath.Join(dir, addr+".stderr"))
			t.Logf("mqpd %s:\n%s", addr, logged)
		}
		t.Fatalf("mqpquery: %v\n%s", err, out)
	}
	if !strings.HasPrefix(string(out), "<!-- 3 items -->") || strings.Count(string(out), "<song>") != 3 {
		t.Fatalf("want the 3-item join, got:\n%s", out)
	}
	// The plan reached each daemon once, and each says so once: a daemon logs
	// every <mqp> frame it receives.
	for _, addr := range addrs {
		logged, _ := os.ReadFile(filepath.Join(dir, addr+".stderr"))
		if n := strings.Count(string(logged), "plan daemon-q\n"); n != 1 {
			t.Errorf("mqpd %s logged the plan %d times:\n%s", addr, n, logged)
		}
	}
}
