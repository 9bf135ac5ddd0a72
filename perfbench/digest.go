package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/dram"
)

// statRecord is the simulated outcome of one run, flattened to ordered
// (key, value) pairs: every app's AppStats, and every DRAM channel's
// Stats and row-hit rate. Event, flit-hop and telemetry counts are left
// out on purpose, so a kernel or NoC fast path that merges events keeps
// the same record as long as the modelled hardware behaves the same.
type statRecord struct {
	keys, values []string
	fields       []string // statistic name of each pair, for field digests
}

func (r *statRecord) add(spec, owner, field, value string) {
	r.keys = append(r.keys, spec+"/"+owner+"/"+field)
	r.values = append(r.values, value)
	r.fields = append(r.fields, spec+"/"+field)
}

// recordPlatform appends one finished platform's statistics under the
// spec label.
func (r *statRecord) recordPlatform(label string, p *core.Platform) {
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, name := range p.Apps() {
		app, err := p.App(name)
		if err != nil {
			continue
		}
		st := app.Stats()
		for _, f := range []struct {
			name string
			v    uint64
		}{
			{"Issued", st.Issued}, {"L3Hits", st.L3Hits}, {"L3Misses", st.L3Misses},
			{"Reads", st.Reads}, {"Writes", st.Writes},
			{"MeanReadLatency", uint64(st.MeanReadLatency)}, {"MaxReadLatency", uint64(st.MaxReadLatency)},
			{"P95ReadLatency", uint64(st.P95ReadLatency)}, {"BytesMoved", st.BytesMoved},
		} {
			r.add(label, name, f.name, u(f.v))
		}
	}
	for ch := 0; ch < p.Channels(); ch++ {
		ctrl, err := p.ChannelController(ch)
		if err != nil {
			continue
		}
		owner := "dram.ch" + strconv.Itoa(ch)
		st := ctrl.Stats()
		for _, f := range []struct {
			name string
			v    uint64
		}{
			{"RowHits", st.RowHits}, {"RowClosed", st.RowClosed}, {"RowConflicts", st.RowConflicts},
			{"HitPromotions", st.HitPromotions}, {"ModeSwitches", st.ModeSwitches},
			{"Refreshes", st.Refreshes}, {"ReadsRejected", st.ReadsRejected}, {"WritesRejected", st.WritesRejected},
		} {
			r.add(label, owner, f.name, u(f.v))
		}
		r.add(label, owner, "RowHitRate", strconv.FormatFloat(st.RowHitRate(), 'g', -1, 64))
		masters := make([]string, 0, len(st.PerMaster))
		for m := range st.PerMaster {
			masters = append(masters, m)
		}
		sort.Strings(masters)
		for _, m := range masters {
			ms := st.PerMaster[m]
			r.add(label, owner+"."+m, "dram.master", fmt.Sprintf("%d %d %d %d %d %d %d",
				ms.Reads, ms.Writes, ms.Bytes, ms.TotalReadLat, ms.MaxReadLat, ms.TotalWriteLat, ms.MaxWriteLat))
		}
	}
	r.add(label, "platform", "RowHitRate", strconv.FormatFloat(p.RowHitRate(), 'g', -1, 64))
}

// digest hashes the whole record.
func (r *statRecord) digest() string {
	h := fnv.New64a()
	for i := range r.keys {
		fmt.Fprintf(h, "%s=%s\n", r.keys[i], r.values[i])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// fieldDigests hashes each (spec, statistic) column over all its owners,
// so a mismatch against a committed digest can name the statistic.
func (r *statRecord) fieldDigests() map[string]string {
	hs := map[string]uint64{}
	for i := range r.keys {
		h := fnv.New64a()
		fmt.Fprintf(h, "%x|%s=%s", hs[r.fields[i]], r.keys[i], r.values[i])
		hs[r.fields[i]] = h.Sum64()
	}
	out := make(map[string]string, len(hs))
	for k, v := range hs {
		out[k] = fmt.Sprintf("%016x", v)
	}
	return out
}

// diff names the first statistic where two records disagree, or "" when
// they are identical.
func (r *statRecord) diff(o *statRecord) string {
	for i := 0; i < len(r.keys) && i < len(o.keys); i++ {
		if r.keys[i] != o.keys[i] {
			return fmt.Sprintf("statistic %s present in one run, %s in the other", r.keys[i], o.keys[i])
		}
		if r.values[i] != o.values[i] {
			return fmt.Sprintf("statistic %s: %s vs %s", r.keys[i], r.values[i], o.values[i])
		}
	}
	if len(r.keys) != len(o.keys) {
		return fmt.Sprintf("records differ in length: %d vs %d statistics", len(r.keys), len(o.keys))
	}
	return ""
}

// committedDigest is one workload's expected record at the default seed.
type committedDigest struct {
	Digest string            `json:"digest"`
	Fields map[string]string `json:"fields"`
}

// digestFile is the committed digests.json beside the benchmark.
type digestFile struct {
	Seed      uint64                     `json:"seed"`
	Workloads map[string]committedDigest `json:"workloads"`
}

// digestPath is the committed record file, embedded at build time and
// rewritten by --write-digests.
const digestPath = "digests.json"

//go:embed digests.json
var committedDigests []byte

// loadDigests parses the committed digests.
func loadDigests() (digestFile, error) {
	var df digestFile
	if err := json.Unmarshal(committedDigests, &df); err != nil {
		return df, fmt.Errorf("%s: %w", digestPath, err)
	}
	return df, nil
}

// against compares a record with the committed digest and names the
// statistics whose column digests differ.
func (r *statRecord) against(c committedDigest) string {
	if r.digest() == c.Digest {
		return ""
	}
	var bad []string
	got := r.fieldDigests()
	for k, v := range got {
		if c.Fields[k] != v {
			bad = append(bad, k)
		}
	}
	for k := range c.Fields {
		if _, ok := got[k]; !ok {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	if len(bad) > 8 {
		bad = append(bad[:8], "...")
	}
	return fmt.Sprintf("digest %s differs from committed %s; statistics that differ: %v", r.digest(), c.Digest, bad)
}

// dramMasterTotal sums a controller's per-master read and write counts.
func dramMasterTotal(st dram.Stats) (reads, writes uint64) {
	for _, m := range st.PerMaster {
		reads += m.Reads
		writes += m.Writes
	}
	return reads, writes
}
