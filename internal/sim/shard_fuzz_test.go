package sim

import (
	"testing"

	"moca/internal/event"
)

// FuzzWindowMerge feeds random per-shard message batches into the barrier
// merge, once with the links in source order and once reversed: the merged
// sequence must be identical — link order can never leak into the
// deterministic (at, src, seq) order — and per-shard staging order must be
// preserved within equal timestamps.
func FuzzWindowMerge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0x42}, uint8(5))
	f.Fuzz(func(t *testing.T, raw []byte, nshards uint8) {
		shards := int(nshards%8) + 1

		// Decode the fuzz bytes into per-shard batches. Timestamps are
		// drawn from a tiny range so collisions across shards are common —
		// ties are where ordering bugs hide.
		batches := make([][]linkMsg, shards)
		for i, b := range raw {
			src := (i + int(b)) % shards
			msg := linkMsg{
				at:   event.Time(b % 7),
				line: uint64(b) << 3,
				src:  src,
				seq:  uint64(len(batches[src])),
			}
			batches[src] = append(batches[src], msg)
		}

		stage := func(reversed bool) []linkMsg {
			links := make([]*shardLink, shards)
			for s := range links {
				links[s] = &shardLink{src: s, out: make([][]linkMsg, 1)}
				links[s].out[0] = append(links[s].out[0], batches[s]...)
			}
			if reversed {
				for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
					links[i], links[j] = links[j], links[i]
				}
			}
			return mergeWindow(nil, links, 0)
		}

		seq := stage(false)
		rev := stage(true)

		if len(seq) != len(rev) {
			t.Fatalf("merge length diverged: forward %d, reversed %d", len(seq), len(rev))
		}
		for i := range seq {
			if seq[i] != rev[i] {
				t.Fatalf("merge[%d] diverged:\nforward  %+v\nreversed %+v", i, seq[i], rev[i])
			}
		}

		// The merge must be totally ordered by (at, src, seq) ...
		for i := 1; i < len(seq); i++ {
			if linkMsgLess(seq[i], seq[i-1]) {
				t.Fatalf("merge not sorted at %d: %+v before %+v", i, seq[i-1], seq[i])
			}
		}
		// ... and lossless: per-shard counts must round-trip.
		perShard := make([]int, shards)
		for _, m := range seq {
			perShard[m.src]++
		}
		for s := range batches {
			if perShard[s] != len(batches[s]) {
				t.Fatalf("shard %d: staged %d messages, merged %d", s, len(batches[s]), perShard[s])
			}
		}
	})
}
