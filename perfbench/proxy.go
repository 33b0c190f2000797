package main

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"mantle/internal/api"
	"mantle/internal/core"
	"mantle/internal/indexnode"
	"mantle/internal/pathutil"
	"mantle/internal/rpc"
	"mantle/internal/tafdb"
	"mantle/internal/txn"
	"mantle/internal/types"
)

// proxy executes one generated op; id is the op's index in its phase.
type proxy interface {
	do(o *op, id int) (types.Result, error)
}

// coreProxy drives the deployment through core.Mantle, the production
// proxy. The untraced runs use it.
type coreProxy struct{ m *core.Mantle }

func (p coreProxy) do(o *op, _ int) (types.Result, error) {
	m := p.m
	c := m.Caller().Begin()
	switch o.kind {
	case opObjStat:
		return m.ObjStat(c, o.path)
	case opDirStat:
		return m.DirStat(c, o.path)
	case opLookup:
		return m.Lookup(c, o.path)
	case opReadDirPage:
		res, _, _, err := m.ReadDirPage(c, o.path, "", readDirPageLimit)
		return res, err
	case opCreate:
		return m.Create(c, o.path, o.size)
	case opDelete:
		return m.Delete(c, o.path)
	case opMkdir:
		return m.Mkdir(c, o.path)
	case opRmdir:
		return m.Rmdir(c, o.path)
	case opDirRename:
		return m.DirRename(c, o.path, o.dst)
	}
	return types.Result{}, fmt.Errorf("unknown op %d", o.kind)
}

// span is one timed interval of a traced op. Spans of one op share the
// op's id; the op's root span comes first and the rest are its children.
type span struct {
	name       string
	start, end time.Time
}

// tracedProxy replays core.Mantle's orchestration from the benchmark —
// the same indexnode.Group and tafdb.DB calls in the same order — with a
// root span per op and a child span around each layer call. spans[id]
// holds op id's spans.
type tracedProxy struct {
	idx    *indexnode.Group
	db     *tafdb.DB
	caller *rpc.Caller
	spans  [][]span

	renames, lockConflicts atomic.Int64
	lockSeq                atomic.Uint64
}

func newTracedProxy(m *core.Mantle, ops int) *tracedProxy {
	return &tracedProxy{idx: m.Index(), db: m.DB(), caller: m.Caller(), spans: make([][]span, ops)}
}

// opTrace collects one op's spans; only the op's goroutine touches it.
type opTrace struct{ spans []span }

func (t *opTrace) call(name string, fn func()) {
	start := time.Now()
	fn()
	t.spans = append(t.spans, span{name: name, start: start, end: time.Now()})
}

func (p *tracedProxy) do(o *op, id int) (types.Result, error) {
	t := &opTrace{spans: make([]span, 1, 4)}
	t.spans[0] = span{name: "proxy." + o.kind.String(), start: time.Now()}
	defer func() {
		t.spans[0].end = time.Now()
		p.spans[id] = t.spans
	}()
	c := p.caller.Begin()
	tm := api.NewTimer()
	fail := func(err error) (types.Result, error) { return tm.Done(c, 0, types.Entry{}), err }
	lookup := func(path string) (lres indexnode.LookupResult, err error) {
		t.call("indexnode.Lookup", func() { lres, err = p.idx.Lookup(c, path) })
		tm.Phase(types.PhaseLookup)
		return lres, err
	}
	dir, name := pathutil.Dir(o.path), pathutil.Base(o.path)
	switch o.kind {
	case opLookup:
		lres, err := lookup(o.path)
		if err != nil {
			return fail(err)
		}
		return tm.Done(c, 0, types.Entry{ID: lres.ID, Pid: lres.ParentID, Kind: types.KindDir, Perm: lres.Perm}), nil
	case opObjStat, opCreate, opDelete:
		lres, err := lookup(dir)
		if err != nil {
			return fail(err)
		}
		want := types.PermLookup
		if o.kind != opObjStat {
			want |= types.PermWrite
		}
		if !lres.Perm.Allows(want) {
			return fail(fmt.Errorf("%s %s: %w", o.kind, o.path, types.ErrPermission))
		}
		var e types.Entry
		var retries int
		switch o.kind {
		case opObjStat:
			t.call("tafdb.StatObject", func() { e, err = p.db.StatObject(c, lres.ID, name) })
		case opCreate:
			t.call("tafdb.CreateObject", func() { e, retries, err = p.db.CreateObject(c, lres.ID, name, o.size) })
		default:
			t.call("tafdb.DeleteObject", func() { retries, err = p.db.DeleteObject(c, lres.ID, name) })
		}
		tm.Phase(types.PhaseExecute)
		return tm.Done(c, retries, e), err
	case opDirStat:
		lres, err := lookup(o.path)
		if err != nil {
			return fail(err)
		}
		var e types.Entry
		t.call("tafdb.StatDir", func() { e, err = p.db.StatDir(c, lres.ID) })
		tm.Phase(types.PhaseExecute)
		return tm.Done(c, 0, e), err
	case opReadDirPage:
		lres, err := lookup(o.path)
		if err != nil {
			return fail(err)
		}
		if !lres.Perm.Allows(types.PermLookup | types.PermRead) {
			return fail(fmt.Errorf("list %s: %w", o.path, types.ErrPermission))
		}
		t.call("tafdb.ReadDirPage", func() { _, _, err = p.db.ReadDirPage(c, lres.ID, "", readDirPageLimit) })
		tm.Phase(types.PhaseExecute)
		return tm.Done(c, 0, types.Entry{}), err
	case opMkdir:
		lres, err := lookup(dir)
		if err != nil {
			return fail(err)
		}
		if !lres.Perm.Allows(types.PermWrite) {
			return fail(fmt.Errorf("mkdir %s: %w", o.path, types.ErrPermission))
		}
		id := p.db.NewID()
		var e types.Entry
		var retries int
		t.call("tafdb.Mkdir", func() { e, retries, err = p.db.Mkdir(c, lres.ID, name, id, types.PermAll) })
		if err == nil {
			t.call("indexnode.AddDir", func() { err = p.idx.AddDir(c, lres.ID, name, id, types.PermAll, dir) })
			if errors.Is(err, types.ErrUnavailable) {
				t.call("tafdb.Rmdir", func() { _, _ = p.db.Rmdir(c, lres.ID, name, id) })
			}
		}
		tm.Phase(types.PhaseExecute)
		return tm.Done(c, retries, e), err
	case opRmdir:
		lres, err := lookup(o.path)
		if err != nil {
			return fail(err)
		}
		var retries int
		t.call("tafdb.Rmdir", func() { retries, err = p.db.Rmdir(c, lres.ParentID, name, lres.ID) })
		if err == nil {
			t.call("indexnode.RemoveDir", func() { err = p.idx.RemoveDir(c, lres.ParentID, name, lres.ID, o.path) })
		}
		tm.Phase(types.PhaseExecute)
		return tm.Done(c, retries, types.Entry{}), err
	case opDirRename:
		p.renames.Add(1)
		return p.dirRename(t, tm, c, o)
	}
	return fail(fmt.Errorf("unknown op %d", o.kind))
}

// renameRetries bounds lock-conflict and transaction retries, as
// core.Config.RenameRetries does.
const renameRetries = 10000

// dirRename is core.Mantle.DirRename's Figure 9 protocol.
func (p *tracedProxy) dirRename(t *opTrace, tm *api.Timer, c *rpc.Op, o *op) (types.Result, error) {
	dstParent, dstName := pathutil.Dir(o.dst), pathutil.Base(o.dst)
	lockID := "perfbench-" + strconv.FormatUint(p.lockSeq.Add(1), 10)
	total := 0
	for attempt := 0; ; attempt++ {
		var prep indexnode.RenamePrep
		var err error
		t.call("indexnode.PrepareRename", func() { prep, err = p.idx.PrepareRename(c, o.path, dstParent, dstName, lockID) })
		if err != nil {
			if errors.Is(err, types.ErrLocked) && attempt < renameRetries {
				p.lockConflicts.Add(1)
				total++
				txn.Backoff(attempt, retryBase, retryMax)
				continue
			}
			tm.Phase(types.PhaseLoopDetect)
			return tm.Done(c, total, types.Entry{}), err
		}
		tm.Phase(types.PhaseLoopDetect)
		var retries int
		t.call("tafdb.RenameDir", func() {
			retries, err = p.db.RenameDir(c, prep.SrcPid, prep.SrcName, prep.DstPid, dstName, prep.SrcID, prep.SrcPerm)
		})
		total += retries
		if err != nil {
			t.call("indexnode.AbortRename", func() { _ = p.idx.AbortRename(c, prep.SrcID, o.path, lockID) })
			tm.Phase(types.PhaseExecute)
			if errors.Is(err, types.ErrRetryExhausted) && attempt < renameRetries {
				total++
				txn.Backoff(attempt, retryBase, retryMax)
				continue
			}
			return tm.Done(c, total, types.Entry{}), err
		}
		t.call("indexnode.CommitRename", func() { err = p.idx.CommitRename(c, prep, dstName, o.path, lockID) })
		tm.Phase(types.PhaseExecute)
		return tm.Done(c, total, types.Entry{}), err
	}
}
