package prog

import (
	"testing"

	"repro/internal/interp"
)

// FuzzLoadCustom feeds arbitrary IR text and argument specs to LoadCustom,
// the parser, verifier, spec parser and compiler behind `peppax -file
// -spec`. Each input must come back as an error or as a Benchmark, never as
// a panic, and a loaded Benchmark's reference input must run on the engine
// without panicking (small dynamic and memory limits keep each execution
// cheap). The committed corpus under testdata/fuzz runs with every plain
// `go test`; `make test-fuzz` explores beyond it for a bounded time.
func FuzzLoadCustom(f *testing.F) {
	f.Fuzz(func(t *testing.T, irText, argSpec string) {
		b, err := LoadCustom(irText, argSpec, 0)
		if err != nil {
			return
		}
		interp.Run(b.Prog, b.Encode(b.RefInput()), interp.Options{MaxDyn: 1 << 14, MaxMemWords: 1 << 14})
	})
}
