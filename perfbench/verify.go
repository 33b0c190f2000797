package main

import (
	"errors"
	"fmt"
	"sort"

	"mantle/internal/core"
	"mantle/internal/fsck"
	"mantle/internal/pathutil"
	"mantle/internal/types"
)

// maxIssues caps the issues one check reports.
const maxIssues = 10

// verify checks the namespace after the phases ran on m:
//   - fsck finds no issue;
//   - every acknowledged objstat returned the pre-populated size;
//   - every acknowledged create stats with its size, every acknowledged
//     mkdir resolves, and every acknowledged delete or rmdir is gone;
//   - every acknowledged task's directory sits under its output
//     directory with its parts and their sizes;
//   - each output directory's link count equals the acknowledged renames
//     into it.
//
// It returns the issues found.
func verify(m *core.Mantle, phases []*phaseRun) []string {
	var issues []string
	note := func(format string, args ...any) {
		if len(issues) < maxIssues {
			issues = append(issues, fmt.Sprintf(format, args...))
		}
	}
	if rep := fsck.Check(m); !rep.OK() {
		for _, is := range rep.Issues {
			note("fsck: %s", is)
		}
	}

	var checks []func() error
	renames := map[string]int64{}
	for _, pr := range phases {
		for i, u := range pr.units {
			res := pr.results(i)
			if len(u.ops) > 1 {
				rn := taskRename(u)
				if rn < 0 || res[rn].err != nil {
					continue
				}
				dst := u.ops[rn].dst
				renames[pathutil.Dir(dst)]++
				var parts []op
				for _, o := range u.ops[:rn] {
					if o.kind == opCreate {
						parts = append(parts, o)
					}
				}
				checks = append(checks, func() error { return checkTaskDir(m, dst, parts) })
				continue
			}
			o, r := u.ops[0], res[0]
			if r.err != nil {
				continue
			}
			switch o.kind {
			case opObjStat:
				if r.res.Entry.Attr.Size != prepopSize {
					note("objstat %s returned size %d, want %d", o.path, r.res.Entry.Attr.Size, prepopSize)
				}
			case opCreate:
				checks = append(checks, func() error {
					res, err := m.ObjStat(m.Caller().Begin(), o.path)
					if err != nil {
						return fmt.Errorf("created %s: %w", o.path, err)
					}
					if res.Entry.Attr.Size != o.size {
						return fmt.Errorf("created %s has size %d, want %d", o.path, res.Entry.Attr.Size, o.size)
					}
					return nil
				})
			case opDelete:
				checks = append(checks, func() error {
					_, err := m.ObjStat(m.Caller().Begin(), o.path)
					return wantNotFound("deleted", o.path, err)
				})
			case opMkdir:
				checks = append(checks, func() error {
					_, err := m.Lookup(m.Caller().Begin(), o.path)
					if err != nil {
						return fmt.Errorf("made dir %s: %w", o.path, err)
					}
					return nil
				})
			case opRmdir:
				checks = append(checks, func() error {
					_, err := m.Lookup(m.Caller().Begin(), o.path)
					return wantNotFound("removed dir", o.path, err)
				})
			}
		}
	}
	outs := make([]string, 0, len(renames))
	for dir := range renames {
		outs = append(outs, dir)
	}
	sort.Strings(outs)
	for _, dir := range outs {
		want := renames[dir]
		checks = append(checks, func() error {
			res, err := m.DirStat(m.Caller().Begin(), dir)
			if err != nil {
				return fmt.Errorf("dirstat %s: %w", dir, err)
			}
			if got := res.Entry.Attr.LinkCount; got != want {
				return fmt.Errorf("%s link count %d, want %d acknowledged renames", dir, got, want)
			}
			return nil
		})
	}
	for _, err := range parallel(len(checks), 64, func(i int) error { return checks[i]() }) {
		note("%v", err)
	}
	return issues
}

// taskRename returns the index of a task's dirrename, or -1.
func taskRename(u unit) int {
	for j, o := range u.ops {
		if o.kind == opDirRename {
			return j
		}
	}
	return -1
}

func checkTaskDir(m *core.Mantle, dir string, parts []op) error {
	_, entries, err := m.ReadDir(m.Caller().Begin(), dir)
	if err != nil {
		return fmt.Errorf("task dir %s: %w", dir, err)
	}
	if len(entries) != len(parts) {
		return fmt.Errorf("task dir %s holds %d entries, want %d parts", dir, len(entries), len(parts))
	}
	sizes := map[string]int64{}
	for _, e := range entries {
		sizes[e.Name] = e.Attr.Size
	}
	for _, p := range parts {
		name := pathutil.Base(p.path)
		if got, ok := sizes[name]; !ok || got != p.size {
			return fmt.Errorf("task dir %s: part %s size %d (present %v), want %d", dir, name, got, ok, p.size)
		}
	}
	return nil
}

func wantNotFound(what, path string, err error) error {
	if errors.Is(err, types.ErrNotFound) {
		return nil
	}
	if err == nil {
		return fmt.Errorf("%s %s still exists", what, path)
	}
	return fmt.Errorf("%s %s: %w", what, path, err)
}
