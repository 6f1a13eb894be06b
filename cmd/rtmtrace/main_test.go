package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/offsetstone"
	"repro/internal/trace"
)

// TestGen pins the gen subcommand to the generator: a named benchmark is
// exactly trace.Write of offsetstone.Generate, and -all writes one file
// per benchmark of the suite with the same content.
func TestGen(t *testing.T) {
	want := func(name string) []byte {
		b, err := offsetstone.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.Write(&buf, b); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	var got bytes.Buffer
	if err := cmdGen([]string{"gsm"}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want("gsm")) {
		t.Fatal("gen gsm differs from trace.Write(offsetstone.Generate(\"gsm\"))")
	}

	dir := t.TempDir()
	if err := cmdGen([]string{"-all", dir}, &got); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := offsetstone.Names()
	if len(entries) != len(names) {
		t.Fatalf("-all wrote %d files, want %d", len(entries), len(names))
	}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(dir, n+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want(n)) {
			t.Fatalf("-all %s.trace differs from the generator", n)
		}
	}

	if err := cmdGen(nil, &got); err == nil {
		t.Fatal("gen without a benchmark name must fail")
	}
}
