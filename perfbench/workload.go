package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"mantle/internal/types"
)

// opKind is one metadata operation of the mixes.
type opKind uint8

const (
	opObjStat opKind = iota
	opDirStat
	opLookup
	opReadDirPage
	opCreate
	opDelete
	opMkdir
	opRmdir
	opDirRename
	numOpKinds
)

var opNames = [numOpKinds]string{
	"objstat", "dirstat", "lookup", "readdirpage",
	"create", "delete", "mkdir", "rmdir", "dirrename",
}

func (k opKind) String() string { return opNames[k] }

// write reports whether the op changes the namespace.
func (k opKind) write() bool { return k >= opCreate }

// readDirPageLimit is the page size of every readdirpage.
const readDirPageLimit = 100

// op is one generated operation: the program receives only these.
type op struct {
	kind opKind
	path string
	dst  string // dirrename destination
	size int64  // create size
}

// unit is one scheduled arrival of the open loop: a single op, or an
// Analytics task whose ops run in order and stop at the first failure.
type unit struct {
	ops []op
}

// workload is one traffic mix with its two rates and latency limits.
type workload struct {
	name           string
	loRate, hiRate float64 // arrivals per second
	// readLimit and writeLimit bound a single-op arrival and taskLimit
	// an Analytics task in slo_miss_frac; each is about twice its hi p50.
	readLimit, writeLimit, taskLimit time.Duration
	gen                              func(seed int64, nLo, nHi int) *plan
}

var workloads = []*workload{
	{
		name: "lookup-zipf", loRate: 1000, hiRate: 8000,
		readLimit: 20 * time.Millisecond, writeLimit: 50 * time.Millisecond,
		gen: genLookupZipf,
	},
	{
		name: "private-churn", loRate: 500, hiRate: 2500,
		readLimit: 20 * time.Millisecond, writeLimit: 50 * time.Millisecond,
		gen: genPrivateChurn,
	},
	{
		name: "shared-commit", loRate: 50, hiRate: 400,
		taskLimit: 170 * time.Millisecond,
		gen:       genSharedCommit,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// plan is a workload's seeded input: the lo- and hi-phase arrivals and
// the generator of the namespace they run against.
type plan struct {
	lo, hi    []unit
	namespace func() *namespace
}

// digest hashes the op stream; equal seeds give equal digests.
func (p *plan) digest() string {
	h := sha256.New()
	var b [8]byte
	for _, phase := range [][]unit{p.lo, p.hi} {
		binary.LittleEndian.PutUint64(b[:], uint64(len(phase)))
		h.Write(b[:])
		for _, u := range phase {
			for _, o := range u.ops {
				binary.LittleEndian.PutUint64(b[:], uint64(o.size))
				h.Write([]byte{byte(o.kind), byte(len(u.ops))})
				h.Write(b[:])
				h.Write([]byte(o.path))
				h.Write([]byte{0})
				h.Write([]byte(o.dst))
				h.Write([]byte{0})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// namespace is a generated tree ready to populate. Objects of one
// directory are contiguous.
type namespace struct {
	dirs []nsDir
	objs []nsObj
	warm []string // directories looked up once before measuring
	next types.InodeID
}

type nsDir struct {
	pid, id types.InodeID
	name    string
	level   int
}

type nsObj struct {
	pid  types.InodeID
	name string
	size int64
}

// firstDirID leaves room below for IDs the deployment allocates itself.
const firstDirID = 1 << 20

func newNamespace() *namespace { return &namespace{next: firstDirID} }

func (ns *namespace) mkdir(pid types.InodeID, level int, name string) types.InodeID {
	ns.next++
	ns.dirs = append(ns.dirs, nsDir{pid: pid, id: ns.next, name: name, level: level})
	return ns.next
}

func (ns *namespace) obj(pid types.InodeID, name string, size int64) {
	ns.objs = append(ns.objs, nsObj{pid: pid, name: name, size: size})
}

// sortDirs orders directories by level, then parent, as populate loads
// them.
func (ns *namespace) sortDirs() {
	sort.SliceStable(ns.dirs, func(i, j int) bool {
		a, b := ns.dirs[i], ns.dirs[j]
		if a.level != b.level {
			return a.level < b.level
		}
		return a.pid < b.pid
	})
}

const prepopSize = 4096

// createSize draws a created object's size.
func createSize(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<20) }

// genUnits draws nLo then nHi arrivals from next.
func genUnits(nLo, nHi int, next func() unit) (lo, hi []unit) {
	lo = make([]unit, nLo)
	for i := range lo {
		lo[i] = next()
	}
	hi = make([]unit, nHi)
	for i := range hi {
		hi[i] = next()
	}
	return lo, hi
}

func single(k opKind, path string) unit { return unit{ops: []op{{kind: k, path: path}}} }

// lookup-zipf: 256 client subtrees at depth 10, each with a bushy leaf
// level of 16 directories holding 240 objects, about a million entries.
// Reads follow Zipf s=1.1 over subtrees; creates and deletes go to a
// uniformly drawn subtree. Zipf writes would put about 5 writes a second
// on each leaf of the hottest subtree, and their random conflicts switch
// delta records on (for good) in a different handful of directories each
// run; the delta compactor on those then sets the read tail, so the run
// would measure which directories tripped, not the read path. Deletes
// draw from per-subtree pools of extra objects, creates use fresh names.
const (
	zSubtrees = 256
	zDepth    = 10
	zLeaves   = 16
	zObjects  = 240
	zipfS     = 1.1
)

func zBase(s int) string {
	p := "/z" + strconv.Itoa(s)
	for l := 1; l < zDepth; l++ {
		p += "/l" + strconv.Itoa(l)
	}
	return p
}

func genLookupZipf(seed int64, nLo, nHi int) *plan {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, zSubtrees-1)
	bases := make([]string, zSubtrees)
	for s := range bases {
		bases[s] = zBase(s)
	}
	pool := make([]int, zSubtrees)
	seq := 0
	next := func() unit {
		r, s := rng.Intn(100), int(zipf.Uint64())
		if r >= 90 {
			s = rng.Intn(zSubtrees)
		}
		leaf := bases[s] + "/b" + strconv.Itoa(rng.Intn(zLeaves))
		switch {
		case r < 70:
			return single(opObjStat, leaf+"/o"+strconv.Itoa(rng.Intn(zObjects)))
		case r < 80:
			return single(opDirStat, leaf)
		case r < 85:
			return single(opLookup, leaf)
		case r < 90:
			return single(opReadDirPage, leaf)
		case r < 95:
			seq++
			return unit{ops: []op{{kind: opCreate, path: leaf + "/n" + strconv.Itoa(seq), size: createSize(rng)}}}
		default:
			k := pool[s]
			pool[s]++
			return single(opDelete, fmt.Sprintf("%s/b%d/x%d", bases[s], k%zLeaves, k))
		}
	}
	lo, hi := genUnits(nLo, nHi, next)
	return &plan{lo: lo, hi: hi, namespace: func() *namespace {
		ns := newNamespace()
		for s := 0; s < zSubtrees; s++ {
			id := ns.mkdir(types.RootID, 1, "z"+strconv.Itoa(s))
			for l := 1; l < zDepth; l++ {
				id = ns.mkdir(id, l+1, "l"+strconv.Itoa(l))
			}
			for b := 0; b < zLeaves; b++ {
				leaf := ns.mkdir(id, zDepth+1, "b"+strconv.Itoa(b))
				ns.warm = append(ns.warm, bases[s]+"/b"+strconv.Itoa(b))
				for o := 0; o < zObjects; o++ {
					ns.obj(leaf, "o"+strconv.Itoa(o), prepopSize)
				}
				for k := b; k < pool[s]; k += zLeaves {
					ns.obj(leaf, "x"+strconv.Itoa(k), prepopSize)
				}
			}
		}
		ns.sortDirs()
		return ns
	}}
}

// private-churn: 1024 clients, each working only in its own directory
// (mdtest -e) of 98 objects, about 100K entries. Deletes and rmdirs
// draw from per-client pools of extra objects and empty directories.
// With 1024 directories each sees about 2 writes a second at hi, so
// writes to one directory rarely overlap and delta records stay off.
const (
	cClients = 1024
	cObjects = 98
)

func genPrivateChurn(seed int64, nLo, nHi int) *plan {
	rng := rand.New(rand.NewSource(seed))
	dirs := make([]string, cClients)
	for c := range dirs {
		dirs[c] = "/c" + strconv.Itoa(c) + "/w"
	}
	objPool := make([]int, cClients)
	dirPool := make([]int, cClients)
	seq := 0
	next := func() unit {
		c := rng.Intn(cClients)
		dir := dirs[c]
		switch r := rng.Intn(100); {
		case r < 35:
			seq++
			return unit{ops: []op{{kind: opCreate, path: dir + "/n" + strconv.Itoa(seq), size: createSize(rng)}}}
		case r < 60:
			k := objPool[c]
			objPool[c]++
			return single(opDelete, dir+"/x"+strconv.Itoa(k))
		case r < 75:
			seq++
			return single(opMkdir, dir+"/m"+strconv.Itoa(seq))
		case r < 85:
			k := dirPool[c]
			dirPool[c]++
			return single(opRmdir, dir+"/r"+strconv.Itoa(k))
		default:
			return single(opObjStat, dir+"/o"+strconv.Itoa(rng.Intn(cObjects)))
		}
	}
	lo, hi := genUnits(nLo, nHi, next)
	return &plan{lo: lo, hi: hi, namespace: func() *namespace {
		ns := newNamespace()
		for c := 0; c < cClients; c++ {
			top := ns.mkdir(types.RootID, 1, "c"+strconv.Itoa(c))
			w := ns.mkdir(top, 2, "w")
			ns.warm = append(ns.warm, dirs[c])
			for k := 0; k < dirPool[c]; k++ {
				ns.mkdir(w, 3, "r"+strconv.Itoa(k))
			}
			for o := 0; o < cObjects; o++ {
				ns.obj(w, "o"+strconv.Itoa(o), prepopSize)
			}
			for k := 0; k < objPool[c]; k++ {
				ns.obj(w, "x"+strconv.Itoa(k), prepopSize)
			}
		}
		ns.sortDirs()
		return ns
	}}
}

// shared-commit: Analytics tasks (Figure 10). Each task makes a temporary
// directory under one of /tmp0../tmp3, writes 3 to 5 parts into it,
// renames it into one of the two shared output directories /out0, /out1
// and stats that directory. 100K ballast entries under /data stay
// untouched. The part count varies so that a task's lookups do not fall
// in step with the IndexNode group's round-robin over its 3 replicas:
// with a fixed 6 lookups per task, every dirstat of a low-rate run would
// hit the same replica, leader or follower, and the run's read latency
// would depend on which.
const (
	sTmps          = 4
	sOuts          = 2
	sMinParts      = 3
	sBallastDirs   = 100
	sBallastPerDir = 1000
)

func genSharedCommit(seed int64, nLo, nHi int) *plan {
	rng := rand.New(rand.NewSource(seed))
	k := 0
	next := func() unit {
		t, q := rng.Intn(sTmps), rng.Intn(sOuts)
		job := "j" + strconv.Itoa(k)
		k++
		tmp := "/tmp" + strconv.Itoa(t) + "/" + job
		out := "/out" + strconv.Itoa(q)
		ops := make([]op, 0, sMinParts+5)
		ops = append(ops, op{kind: opMkdir, path: tmp})
		for i, n := 0, sMinParts+rng.Intn(3); i < n; i++ {
			ops = append(ops, op{kind: opCreate, path: tmp + "/part-" + strconv.Itoa(i), size: createSize(rng)})
		}
		ops = append(ops, op{kind: opDirRename, path: tmp, dst: out + "/" + job}, op{kind: opDirStat, path: out})
		return unit{ops: ops}
	}
	lo, hi := genUnits(nLo, nHi, next)
	return &plan{lo: lo, hi: hi, namespace: func() *namespace {
		ns := newNamespace()
		for t := 0; t < sTmps; t++ {
			ns.mkdir(types.RootID, 1, "tmp"+strconv.Itoa(t))
			ns.warm = append(ns.warm, "/tmp"+strconv.Itoa(t))
		}
		for q := 0; q < sOuts; q++ {
			ns.mkdir(types.RootID, 1, "out"+strconv.Itoa(q))
			ns.warm = append(ns.warm, "/out"+strconv.Itoa(q))
		}
		data := ns.mkdir(types.RootID, 1, "data")
		for g := 0; g < sBallastDirs; g++ {
			d := ns.mkdir(data, 2, "g"+strconv.Itoa(g))
			ns.warm = append(ns.warm, "/data/g"+strconv.Itoa(g))
			for o := 0; o < sBallastPerDir; o++ {
				ns.obj(d, "o"+strconv.Itoa(o), prepopSize)
			}
		}
		ns.sortDirs()
		return ns
	}}
}
