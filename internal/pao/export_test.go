package pao

import (
	"bytes"
	"testing"

	"repro/internal/db"
)

// EncodeCounts encodes res as a snapshot with its step timings zeroed, so a
// byte comparison covers exactly the result content. It is exported for the
// external test package too.
func EncodeCounts(tb testing.TB, d *db.Design, cfg Config, res *Result) []byte {
	tb.Helper()
	flat := *res
	flat.Stats = res.Stats.Counts()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, d, cfg, &flat); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
