package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"lira/internal/shedding"
	"lira/internal/spans"
	"lira/internal/telemetry"
)

// TestSpanExportByteIdentical pins the tracing determinism contract at
// the level users consume it: a full simulated run with a span tracer
// attached, repeated under the same seed, must export byte-identical
// Chrome trace-event JSON — same ids, same model-time timestamps, same
// ordering — across three seeds. Any wall-clock or
// iteration-order leak into the tracer shows up here as a one-byte diff.
// Subtest names keep the K1_ (one shard) prefix they had when a second
// engine ran beside this one, so test IDs stay stable.
func TestSpanExportByteIdentical(t *testing.T) {
	env := testEnv(t)
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("K1_seed%d", seed), func(t *testing.T) {
			export := func() []byte {
				cfg := smallRun(shedding.Lira, 0.5)
				cfg.DurationTicks = 150
				cfg.Seed = seed
				hub := telemetry.NewHub(0)
				tracer := spans.New(spans.Config{Seed: seed})
				hub.SetSpans(tracer)
				cfg.Telemetry = hub
				if _, err := Run(env, cfg); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := tracer.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if tracer.Len() == 0 {
					t.Fatal("run produced no spans")
				}
				return buf.Bytes()
			}
			a, b := export(), export()
			if !bytes.Equal(a, b) {
				t.Fatalf("span exports differ between identical runs (%d vs %d bytes)", len(a), len(b))
			}
		})
	}
}
