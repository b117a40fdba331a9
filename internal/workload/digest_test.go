package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/hint"
	"repro/internal/trace"
)

// generatorDigests pins the generator's output byte for byte: every preset at
// 50,000 requests, the benchmark's two-client input and a three-client MySQL
// spec. The values were recorded before the page cleaner's dirty list and
// the parallel Spec.Trace went in; any change to a generated trace, however
// small, changes its digest. A deliberate change to the generators must
// update this table (run with -v to print the new values).
var generatorDigests = []struct{ spec, sha string }{
	{"DB2_C60:50000", "d95056baf68a65fa4602f038b278734fe8a3a4cf12ccf4cea624915b21795829"},
	{"DB2_C300:50000", "a9bad732cfae14e6bded32dbf68d27afceea364d81402e7f9206cacf97737dce"},
	{"DB2_C540:50000", "579fb3ebf1b2c43b96cb77f175e63677db5e28997697d21a8f94db7726cdb9fc"},
	{"DB2_H80:50000", "c139fe5ff18c7a87e3545e631bb072c5b7af251cc1efaeec583a3fc74ba4c7d7"},
	{"DB2_H400:50000", "dd104dde4c268c8a5bcd51f5cdf7ff18d7f2cb17dcc67d9a6c5e5e91bea626ca"},
	{"DB2_H720:50000", "2e4732b00f3aea43a7e5709bbf29dff78a0368030b191fe658b281e90297233c"},
	{"MY_H65:50000", "b444adb7863bbee3fd55eab158bfdc57a04cf153e7253ef469ce6e48b0201e8c"},
	{"MY_H98:50000", "88761c428d90c15da98acaab4ebf09179cead9287bc71e55c44b3b24e4bb8559"},
	{"DB2_C60*2:1000000@7", "ead24d8fe192a3da05e816f9fa08b2a587cc0888cf568da974a9d01832fa6d64"},
	{"MY_H65*3:60000", "5612a62ae96791922ea6f4b01d4542d2c102d95790e28dc6c8ff1d82c7a9c979"},
}

// traceDigest is a sha256 over a trace's requests (page, hint, op, client),
// its dictionary keys in ID order and its client names, each field
// length-delimited so no two traces share an encoding.
func traceDigest(tr *trace.Trace) string {
	h := sha256.New()
	var b [binary.MaxVarintLen64]byte
	num := func(v uint64) { h.Write(b[:binary.PutUvarint(b[:], v)]) }
	str := func(s string) { num(uint64(len(s))); h.Write([]byte(s)) }
	num(uint64(len(tr.Reqs)))
	for _, r := range tr.Reqs {
		num(r.Page)
		num(uint64(r.Hint))
		num(uint64(r.Op))
		num(uint64(r.Client))
	}
	num(uint64(tr.Dict.Len()))
	for id := 0; id < tr.Dict.Len(); id++ {
		str(tr.Dict.Key(hint.ID(id)))
	}
	num(uint64(len(tr.Clients)))
	for _, c := range tr.Clients {
		str(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorDigests is the golden oracle of trace generation: unlike the
// tests that compare one generation path against another, it pins the bytes
// themselves, so a faster generator must reproduce them exactly.
func TestGeneratorDigests(t *testing.T) {
	for _, g := range generatorDigests {
		spec, err := ParseSpec(g.spec)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := spec.Trace()
		if err != nil {
			t.Fatal(err)
		}
		got := traceDigest(tr)
		t.Logf("%-22s %s", g.spec, got)
		if got != g.sha {
			t.Errorf("%s: digest %s, want %s", g.spec, got, g.sha)
		}
	}
}
