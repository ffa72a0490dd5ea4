package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"closurex/internal/faultinject"
	"closurex/internal/targets"
)

// The interpreter's campaign-level contract: a fixed-seed campaign on every
// registered target, in every instrumentation mode the fuzzer ships, must
// keep producing the same coverage map, the same corpus in the same order
// and the same crash and hang buckets. Any change to the VM's execution
// fast paths (in-line page walk, coverage binding, branch dispatch)
// that altered a single observable would move one of the digests below.

const (
	goldenSeed  = 0xC0DE
	goldenExecs = 600
)

// campaignMode is one instrumentation configuration of the golden matrix.
type campaignMode struct {
	name string
	opts func() InstanceOptions
}

func campaignModes() []campaignMode {
	return []campaignMode{
		{"plain", func() InstanceOptions {
			return InstanceOptions{}
		}},
		{"sanitize", func() InstanceOptions {
			return InstanceOptions{Sanitize: SanitizeElide}
		}},
		{"interproc", func() InstanceOptions {
			return InstanceOptions{Interproc: true}
		}},
		// Injected restore faults drive the campaign through the degraded
		// restore handling; the injector is count-based, so the failure
		// lands at the same iteration on every run.
		{"restore-fault", func() InstanceOptions {
			inj := faultinject.New(goldenSeed)
			inj.FailAfter(faultinject.RestoreGlobals, 200, 1)
			return InstanceOptions{Injector: inj}
		}},
	}
}

// digest hashes every deterministic observable of a finished campaign:
// the edge count, the coverage map bytes, the corpus inputs in queue
// order, and the crash and hang keys. Variable-length parts carry a
// length prefix so no two different observations hash alike.
func (o *campaignObs) digest() string {
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	binary.LittleEndian.PutUint64(n[:], uint64(o.edges))
	h.Write(n[:])
	put(o.bitmap)
	for _, q := range o.queue {
		put(q)
	}
	for _, group := range [][]string{o.crashes, o.hangs} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(group)))
		h.Write(n[:])
		for _, k := range group {
			put([]byte(k))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCampaignObservablesGolden pins the digest of a 600-exec campaign per
// mode and target, one subtest each. Regenerate with
// `go test ./internal/core -run CampaignObservablesGolden -update` only for
// an intended change of campaign behaviour; an update filtered to some
// subtests rewrites only their lines.
func TestCampaignObservablesGolden(t *testing.T) {
	all := targets.All()
	if len(all) == 0 {
		t.Fatal("no registered targets")
	}
	path := filepath.Join("testdata", "campaign.golden")
	want := map[string]string{} // "mode target" -> digest
	data, err := os.ReadFile(path)
	if err != nil && !(*updateGolden && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			want[line[:i]] = line[i+1:]
		}
	}
	var keys []string // every case, in file order, whatever -run selects
	for _, mode := range campaignModes() {
		for _, tgt := range all {
			keys = append(keys, mode.name+" "+tgt.Short)
		}
		t.Run(mode.name, func(t *testing.T) {
			for _, tgt := range all {
				key := mode.name + " " + tgt.Short
				t.Run(tgt.Short, func(t *testing.T) {
					opts := mode.opts()
					opts.TrialSeed = goldenSeed
					opts.DeterministicRand = true
					got := observeCampaignWith(t, tgt, opts, goldenExecs).digest()
					if *updateGolden {
						want[key] = got
					} else if got != want[key] {
						t.Errorf("campaign observables drifted from %s: got %s, want %q", path, got, want[key])
					}
				})
			}
		})
	}
	if *updateGolden {
		var sb strings.Builder
		for _, key := range keys {
			if want[key] != "" {
				fmt.Fprintf(&sb, "%s %s\n", key, want[key])
			}
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
