package runner

// The simulator's Ed25519 keyring sits behind sig.VerifyMemo (buildScheme).
// These tests hold what that promises of a whole run: nothing observable
// changes, every verdict is the keyring's, and the keyring verifies about
// once per forged record instead of once per receiver.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"bbcast/internal/faultplan"
	"bbcast/internal/geo"
	"bbcast/internal/sig"
)

// hostileShaped is the benchmark's sim-hostile cell in miniature: real
// signatures, a forger whose junk every neighbour refuses, a mute node and
// burst loss, so both verdicts are memoised and recovery traffic repeats old
// records.
func hostileShaped() Scenario {
	sc := DefaultScenario()
	sc.Name = "hostile-shaped"
	sc.Seed = 29
	sc.N = 25
	sc.Area = geo.Rect{W: 700, H: 700} // sim-hostile's density: 50 nodes per km²
	sc.UseEd25519 = true
	sc.Workload.Start, sc.Workload.End = 5*time.Second, 30*time.Second
	sc.Duration = 35 * time.Second
	sc.Adversaries = []Adversaries{{Kind: AdvForgeSpammer, Count: 1}, {Kind: AdvMute, Count: 1}}
	sc.FaultPlan = &faultplan.Plan{Events: []faultplan.Event{{
		At: 10 * time.Second, Kind: faultplan.BurstLoss, Duration: 15 * time.Second,
		LossFactor: 1, MeanBad: 2 * time.Second, MeanGood: 4 * time.Second,
	}}}
	return sc
}

// bareEd25519 is buildScheme without the memo.
func bareEd25519(sc Scenario) (sig.Scheme, error) { return sig.NewEd25519(sc.N, sc.Seed) }

// countedScheme counts what reaches the keyring.
type countedScheme struct {
	sig.Scheme
	signs, verifies, refused int
}

func (c *countedScheme) Sign(id uint32, msg []byte) []byte {
	c.signs++
	return c.Scheme.Sign(id, msg)
}

func (c *countedScheme) Verify(id uint32, msg, tag []byte) bool {
	c.verifies++
	ok := c.Scheme.Verify(id, msg, tag)
	if !ok {
		c.refused++
	}
	return ok
}

// comparedScheme is the run's memoised keyring with a bare one beside it: it
// asks both every Verify question, answers with the memo's verdict, and
// records the first questions on which the two disagreed.
type comparedScheme struct {
	sig.Scheme // the memo: signs, and answers
	bare       sig.Scheme
	verifies   int
	disagree   []string
}

func (c *comparedScheme) Verify(id uint32, msg, tag []byte) bool {
	c.verifies++
	got := c.Scheme.Verify(id, msg, tag)
	if want := c.bare.Verify(id, msg, tag); got != want && len(c.disagree) < 5 {
		c.disagree = append(c.disagree, fmt.Sprintf("id=%d msg=%x tag=%x: memo %v, keyring %v", id, msg, tag, got, want))
	}
	return got
}

// TestVerifyMemoIsTransparent runs the hostile-shaped scenario, and the same
// with an equivocator signing two payloads under each of its message ids, on
// the memoised keyring and on the bare one. On the memoised run every verdict
// is compared with the bare keyring's as it is given and must agree; results
// (events, radio, node counters, delivery, latencies) and the trace must be
// identical to the bare run's, byte for byte.
func TestVerifyMemoIsTransparent(t *testing.T) {
	equivocating := hostileShaped()
	equivocating.Name += "-equivocating"
	equivocating.Adversaries = append(equivocating.Adversaries, Adversaries{Kind: AdvEquivocate, Count: 1})
	for _, sc := range []Scenario{hostileShaped(), equivocating} {
		t.Run(sc.Name, func(t *testing.T) {
			runWith := func(h hooks) (Result, []byte) {
				var trace bytes.Buffer
				sc.Trace = &trace
				res, err := run(sc, h)
				if err != nil {
					t.Fatal(err)
				}
				if res.TraceErr != nil {
					t.Fatalf("lossy trace: %v", res.TraceErr)
				}
				return res, trace.Bytes()
			}
			var compared *comparedScheme
			memoRes, memoTrace := runWith(hooks{scheme: func(sc Scenario) (sig.Scheme, error) {
				memo, err := buildScheme(sc)
				if err != nil {
					return nil, err
				}
				bare, err := bareEd25519(sc)
				compared = &comparedScheme{Scheme: memo, bare: bare}
				return compared, err
			}})
			bareRes, bareTrace := runWith(hooks{scheme: bareEd25519})
			if memoRes.Node.Accepted == 0 || memoRes.Phys.BurstLosses == 0 {
				t.Fatalf("the scenario exercised nothing: %d accepts, %d burst losses", memoRes.Node.Accepted, memoRes.Phys.BurstLosses)
			}
			if sc.Name == equivocating.Name && len(memoRes.Violations) == 0 {
				t.Fatal("the equivocator's second signatures split no one: no agreement violation")
			}
			if _, ok := compared.Scheme.(*sig.VerifyMemo); !ok || len(compared.disagree) > 0 {
				t.Errorf("%T disagreed with the bare keyring on %d+ of %d verifications: %v",
					compared.Scheme, len(compared.disagree), compared.verifies, compared.disagree)
			}
			if !reflect.DeepEqual(memoRes, bareRes) {
				t.Errorf("results differ:\nmemo: %+v\nbare: %+v", memoRes, bareRes)
			}
			if !bytes.Equal(memoTrace, bareTrace) {
				t.Errorf("traces differ (%d vs %d bytes)", len(memoTrace), len(bareTrace))
			}
		})
	}
}

// TestEd25519InnerVerifyCeiling counts what the memo lets through to the
// keyring on the hostile-shaped run: 556 of the 5 841 verifications the nodes
// made (9.5 %), of which 544 refused the forger's junk and 12 passed, against
// 549 signatures made (0.022 passed per signature: Sign files each signature
// as valid, so an honest record reaches the keyring only after another has
// taken its slot). Without the memo the first ratio is 1 and the second 7.99;
// with a memo that only remembered verdicts, 0.178 and 0.90. Both are pure
// functions of code and seed; the first ceiling leaves a tenth, the second
// room for about fifteen more evicted records.
func TestEd25519InnerVerifyCeiling(t *testing.T) {
	var inner *countedScheme
	nodes := &sigCounter{}
	sc := hostileShaped()
	sc.Observer = nodes
	_, err := run(sc, hooks{scheme: func(sc Scenario) (sig.Scheme, error) {
		ed, err := bareEd25519(sc)
		if err != nil {
			return nil, err
		}
		inner = &countedScheme{Scheme: ed}
		return sig.NewVerifyMemo(inner), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	perEvent := float64(inner.verifies) / float64(nodes.verifies)
	perSign := float64(inner.verifies-inner.refused) / float64(inner.signs)
	t.Logf("%d keyring verifications (%d refused): %.3f of the nodes' %d; %.3f passed per each of %d signatures",
		inner.verifies, inner.refused, perEvent, nodes.verifies, perSign, inner.signs)
	const eventCeiling, signCeiling = 0.105, 0.05
	if perEvent > eventCeiling {
		t.Errorf("%.3f of the nodes' verifications reached the keyring, ceiling is %v", perEvent, eventCeiling)
	}
	if perSign > signCeiling {
		t.Errorf("%.3f successful keyring verifications per signature, ceiling is %v", perSign, signCeiling)
	}
}
