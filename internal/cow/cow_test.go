package cow

import (
	"fmt"
	"sync"
	"testing"
)

// The three contracts every client of the table relies on, each against a
// zero-value Map.
func TestMap(t *testing.T) {
	cases := map[string]func(t *testing.T, m *Map[string, *string]){
		// Read of a map nothing was inserted into is usable: lookups miss.
		"untouched": func(t *testing.T, m *Map[string, *string]) {
			if v, ok := m.Read()["k"]; ok || v != nil {
				t.Fatalf("untouched map holds %v", v)
			}
		},
		// 8 goroutines insert overlapping keys, each with a value of its own:
		// every goroutine must be handed the same canonical value per key, and
		// that value is what Read publishes.
		"converge": func(t *testing.T, m *Map[string, *string]) {
			const goroutines, keys = 8, 50
			got := make([][keys]*string, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < keys; i++ {
						k := fmt.Sprintf("key-%d", (i+g)%keys)
						v, ok := m.Read()[k]
						if !ok {
							own := fmt.Sprintf("%s by %d", k, g)
							v = m.Insert(k, &own, 1<<20)
						}
						got[g][(i+g)%keys] = v
					}
				}(g)
			}
			wg.Wait()
			for i := 0; i < keys; i++ {
				want := m.Read()[fmt.Sprintf("key-%d", i)]
				if want == nil {
					t.Fatalf("key-%d was never published", i)
				}
				for g := range got {
					if got[g][i] != want {
						t.Fatalf("key-%d: goroutine %d holds %q, table publishes %q", i, g, *got[g][i], *want)
					}
				}
			}
		},
		// A full map hands new values back unpublished and never grows, while
		// keys it already holds keep resolving to their canonical value.
		"full": func(t *testing.T, m *Map[string, *string]) {
			const limit = 4
			vals := make([]string, limit+3)
			for i := range vals {
				vals[i] = fmt.Sprintf("v%d", i)
				if got := m.Insert(vals[i], &vals[i], limit); got != &vals[i] {
					t.Fatalf("first insert of %s returned another value", vals[i])
				}
			}
			if n := len(m.Read()); n != limit {
				t.Fatalf("map holds %d entries, limit %d", n, limit)
			}
			other := "other"
			if got := m.Insert(vals[0], &other, limit); got != &vals[0] {
				t.Fatal("full map lost a published key")
			}
			if _, ok := m.Read()[vals[limit]]; ok {
				t.Fatal("full map published a key past its limit")
			}
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) { run(t, new(Map[string, *string])) })
	}
}

// A key must find its shard again whether it arrives as wire bytes or as a
// string, and a realistic vocabulary must not pile into one shard.
func TestShardedSpreadsByHash(t *testing.T) {
	var table Sharded[string, string]
	used := make(map[*Map[string, string]]bool)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("worker-%d", i)
		s := table.Shard(Hash([]byte(k)))
		s.Insert(k, k, 1<<20)
		if got := table.Shard(Hash(k)).Read()[k]; got != k {
			t.Fatalf("%s inserted by bytes hash, not found by string hash", k)
		}
		used[s] = true
	}
	if len(used) < Shards/2 {
		t.Fatalf("200 keys landed in %d of %d shards", len(used), Shards)
	}
}
