package thor

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestMemoryPagesModel drives a CPU's memory through random stores (the
// store path's memSetWord), host loads and word writes, clears, snapshots
// and restores, against a model that clears and copies all of memory every
// time. After every operation the memory must equal the model's, every
// page holding a non-zero byte must be marked, and every snapshot taken
// must still hold what it held when taken. Memory sizes cover a short last
// page and a second word of marks.
func TestMemoryPagesModel(t *testing.T) {
	for _, size := range []uint32{64 * 1024, 70*1024 + 12} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.MemSize = size
			c := New(cfg)
			model := make([]byte, size)
			type taken struct {
				s   *Snapshot
				mem []byte
			}
			var snaps []taken
			rng := rand.New(rand.NewSource(int64(size)))
			word := func() uint32 {
				if rng.Intn(3) == 0 {
					return 0
				}
				return rng.Uint32()
			}
			addr := func() uint32 {
				// Most traffic near a few pages, as a workload's is.
				if rng.Intn(4) == 0 {
					return uint32(rng.Intn(int(size)/4)) * 4
				}
				return uint32(rng.Intn(3))*SnapshotPageBytes*7 + uint32(rng.Intn(SnapshotPageBytes/4))*4
			}
			for op := 0; op < 4000; op++ {
				var what string
				switch rng.Intn(12) {
				case 0, 1, 2, 3:
					what = "store"
					a, w := addr(), word()
					if !c.dataWrite(a, w) {
						t.Fatalf("store at %#x refused", a)
					}
					model[a], model[a+1], model[a+2], model[a+3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
				case 4:
					what = "word write"
					a, w := addr(), word()
					if err := c.WriteWord32(a, w); err != nil {
						t.Fatal(err)
					}
					model[a], model[a+1], model[a+2], model[a+3] = byte(w>>24), byte(w>>16), byte(w>>8), byte(w)
				case 5, 6:
					what = "load"
					a := uint32(rng.Intn(int(size)))
					data := make([]byte, rng.Intn(min(3*SnapshotPageBytes, int(size-a))+1))
					if rng.Intn(2) == 0 {
						rng.Read(data)
					}
					if err := c.LoadMemory(a, data); err != nil {
						t.Fatal(err)
					}
					copy(model[a:], data)
				case 7:
					what = "clear"
					c.ClearMemory()
					clear(model)
				case 8, 9:
					what = "snapshot"
					var prev *Snapshot
					if len(snaps) > 0 && rng.Intn(2) == 0 {
						prev = snaps[rng.Intn(len(snaps))].s
					}
					s, _ := c.SnapshotSharing(prev)
					snaps = append(snaps, taken{s, bytes.Clone(model)})
				default:
					if len(snaps) == 0 {
						continue
					}
					what = "restore"
					if rng.Intn(2) == 0 {
						// The board's way in: cleared and reloaded first.
						c.ClearMemory()
						if err := c.LoadMemory(0, []byte{1, 2, 3, 4, 5}); err != nil {
							t.Fatal(err)
						}
					}
					tk := snaps[rng.Intn(len(snaps))]
					if err := c.Restore(tk.s); err != nil {
						t.Fatal(err)
					}
					copy(model, tk.mem)
				}
				if !bytes.Equal(c.mem, model) {
					t.Fatalf("op %d (%s): memory differs from the model", op, what)
				}
				for p := 0; p*SnapshotPageBytes < len(c.mem); p++ {
					if !c.isDirty(p) && !bytes.Equal(c.page(p), zeroPage[:len(c.page(p))]) {
						t.Fatalf("op %d (%s): page %d holds a non-zero byte and is not marked", op, what, p)
					}
				}
			}
			if zeroPage != [SnapshotPageBytes]byte{} {
				t.Fatal("the shared zero page was written")
			}
			for i, tk := range snaps {
				if !bytes.Equal(bytes.Join(tk.s.MemPages, nil), tk.mem) {
					t.Fatalf("snapshot %d no longer holds the memory it was taken of", i)
				}
			}
			if len(snaps) < 100 {
				t.Fatalf("only %d snapshots taken", len(snaps))
			}
		})
	}
}
