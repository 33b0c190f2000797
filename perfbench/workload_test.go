package main

import (
	"testing"

	"mantle/internal/pathutil"
	"mantle/internal/types"
)

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.gen(7, 50, 300), w.gen(7, 50, 300), w.gen(8, 50, 300)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 gave digests %s and %s", w.name, a.digest(), b.digest())
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", w.name, a.digest())
		}
	}
}

// Every op's target exists in the generated namespace when it should,
// and creates, mkdirs and deletes never reuse a name, so no op of the
// stream can fail against a correct service.
func TestStreamMatchesNamespace(t *testing.T) {
	for _, w := range workloads {
		p := w.gen(3, 200, 2000)
		ns := p.namespace()
		dirs := map[string]bool{"/": true}
		byID := map[types.InodeID]string{types.RootID: "/"}
		for _, d := range ns.dirs {
			parent, ok := byID[d.pid]
			if !ok {
				t.Fatalf("%s: dir %s listed before its parent", w.name, d.name)
			}
			path := pathutil.Join(parent, d.name)
			byID[d.id] = path
			dirs[path] = true
		}
		objs := map[string]bool{}
		for _, o := range ns.objs {
			objs[pathutil.Join(byID[o.pid], o.name)] = true
		}
		for _, dir := range ns.warm {
			if !dirs[dir] {
				t.Errorf("%s: warmup dir %s missing", w.name, dir)
			}
		}
		made := map[string]bool{}
		gone := map[string]bool{}
		for _, u := range append(append([]unit(nil), p.lo...), p.hi...) {
			for _, o := range u.ops {
				switch o.kind {
				case opObjStat:
					if !objs[o.path] {
						t.Errorf("%s: objstat target %s missing", w.name, o.path)
					}
				case opDelete, opRmdir:
					if !(objs[o.path] || dirs[o.path]) || gone[o.path] {
						t.Errorf("%s: %s target %s missing or reused", w.name, o.kind, o.path)
					}
					gone[o.path] = true
				case opDirStat, opLookup, opReadDirPage:
					if !dirs[o.path] {
						t.Errorf("%s: %s target %s missing", w.name, o.kind, o.path)
					}
				case opCreate, opMkdir:
					if objs[o.path] || dirs[o.path] || made[o.path] {
						t.Errorf("%s: %s name %s reused", w.name, o.kind, o.path)
					}
					if parent := pathutil.Dir(o.path); !dirs[parent] && !made[parent] {
						t.Errorf("%s: %s parent %s missing", w.name, o.kind, parent)
					}
					made[o.path] = true
				case opDirRename:
					if !made[o.path] || !dirs[pathutil.Dir(o.dst)] || made[o.dst] {
						t.Errorf("%s: dirrename %s -> %s", w.name, o.path, o.dst)
					}
					made[o.dst] = true
				}
			}
		}
		if len(made) == 0 {
			t.Errorf("%s: stream writes nothing", w.name)
		}
	}
}

func TestZipfSkewsSubtrees(t *testing.T) {
	p := genLookupZipf(1, 0, 20000)
	hits := make([]int, zSubtrees)
	for _, u := range p.hi {
		for s := 0; s < zSubtrees; s++ {
			if len(u.ops[0].path) > len(zBase(s)) && u.ops[0].path[:len(zBase(s))+1] == zBase(s)+"/" {
				hits[s]++
				break
			}
		}
	}
	if hits[0] < 10*hits[zSubtrees-1] || hits[0] < len(p.hi)/10 {
		t.Errorf("subtree 0 got %d ops, subtree %d got %d: not Zipf-skewed", hits[0], zSubtrees-1, hits[zSubtrees-1])
	}
}
