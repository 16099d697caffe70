package patterns

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"
)

// traceGoldenPath holds the SHA-256 of the JSON form of every trace in
// goldenCases, keyed by case name. The digests were recorded from the
// materialized grid builder the families had before Generate became the
// only generator, so they pin the streamed families to the bytes that
// builder produced. Rewrite the file with `go test ./internal/patterns
// -run TestTraceGolden -update-golden` only for an intended trace change.
const traceGoldenPath = "testdata/trace_golden.json"

var updateGolden = flag.Bool("update-golden", false, "rewrite "+traceGoldenPath+" from the current traces")

// goldenCases crosses every grid family with every layout and the knobs
// that change a trace's bytes (gaps, fields, jitter, regions, k, shard
// count), plus dagfile replays: DOT and JSON, declaration-ordered and
// with forward edges.
func goldenCases() []string {
	var cases []string
	for _, fam := range Families() {
		if fam == "dagfile" {
			continue
		}
		size := "width=8&steps=4"
		if families[fam].is2D {
			size = "width=4&height=3&steps=3"
		}
		for _, layout := range []string{"malloc", "aligned", "spread", "shard"} {
			last := "regions=3&k=5"
			if layout == "shard" {
				last = "shards=4&k=5" // the shard layout refuses regions
			}
			for _, knob := range []string{"", "&gaps=3", "&fields=1&jitter=20&seed=5", "&" + last} {
				cases = append(cases, fam+"?"+size+"&layout="+layout+knob)
			}
		}
	}
	for _, f := range []string{"diamond.dot", "reordered.dot", "chain.json", "forward.json"} {
		cases = append(cases, "dagfile?path=testdata/dag/"+f)
	}
	return cases
}

func TestTraceGolden(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		b, err := os.ReadFile(traceGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]string{}
	for _, c := range goldenCases() {
		b, err := json.Marshal(build(t, c))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[c] = hex.EncodeToString(sum[:])
		if !*updateGolden && got[c] != want[c] {
			t.Errorf("%s: trace sha256 %s, want %s", c, got[c], want[c])
		}
	}
	if !*updateGolden {
		if len(want) != len(got) {
			keys := make([]string, 0, len(want))
			for k := range want {
				if _, ok := got[k]; !ok {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			t.Errorf("%d recorded cases no longer generated: %v", len(keys), keys)
		}
		return
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // sorts the keys
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(traceGoldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}
