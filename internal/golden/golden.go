// Package golden pins the standard output of the example programs and
// the commands: Stdout runs a function with os.Stdout captured, and
// Compare checks the bytes against a file captured earlier, typically
// testdata/stdout.txt beside the test.
//
//	golden.Compare(t, "testdata/stdout.txt", golden.Stdout(t, main))
package golden

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// Stdout runs fn with os.Stdout redirected into a pipe and returns
// everything fn wrote there.
func Stdout(t testing.TB, fn func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	read := make(chan []byte, 1) // one send, so the reader exits even if fn panics
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	return <-read
}

// Compare fails t unless got equals the contents of file.
func Compare(t testing.TB, file string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\ngot:\n%s\nwant:\n%s", file, got, want)
	}
}
