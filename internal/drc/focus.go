package drc

import (
	"repro/internal/geom"
	"repro/internal/tech"
)

// A focus is a QueryCtx's gathered neighbourhood. FocusVia widens, layer by
// layer, the window the next Focus gathers; Focus runs one region query per
// widened layer and keeps every live object the context's view holds (a
// fixed-shape context skips vias) touching that layer's window as a
// pointer-free record on the context. Until the engine's object set next
// changes, a via signature (viaSignature) or a foreign-object test
// (ForeignNearVia) whose window lies inside its layer's focus window filters
// those records instead of querying the index. The records are exactly the
// objects a query of the focus window returns, so the ones touching a
// window inside it are exactly what a query of that window returns: the
// same object set, and so the same sorted signature bytes.

// focusRec is one gathered object: its exact rectangle, ID and net (40
// bytes, no pointer).
type focusRec struct {
	r   geom.Rect
	id  int32
	net int32
}

// focusLayer is one index's focus: the window FocusVia widened for the next
// gather, and the window the last gather covered with its records.
type focusLayer struct {
	want, win    geom.Rect
	wanted, held bool
	lo, hi       int32 // the held records: focus.recs[lo:hi]
}

// focus is a QueryCtx's neighbourhood state. layers is indexed like
// Engine.all: metal k at k-1, then the cut layers.
type focus struct {
	eng    *Engine
	gen    uint64 // eng.gen at the gather
	layers []focusLayer
	recs   []focusRec
}

// sigWindow is one window a via signature reads: its index (an Engine.all
// slot), the signature class of what it finds there, and the rectangle.
type sigWindow struct {
	slot int
	cls  uint8
	win  geom.Rect
}

// viaWindows returns the windows a signature of via v at p reads: the bottom
// enclosure bloated by its metal's halo, the top enclosure by its metal's,
// and, when the cut layer is indexed and v has cuts, the cuts' bounding box
// bloated by the cut spacing.
func (e *Engine) viaWindows(v *tech.ViaDef, p geom.Point) (ws [3]sigWindow, n int) {
	k := v.CutBelow
	ws[0] = sigWindow{k - 1, 0, v.BotRect(p).Bloat(e.halo[k])}
	ws[1] = sigWindow{k, 1, v.TopRect(p).Bloat(e.halo[k+1])}
	n = 2
	if c := e.Tech.Cut(k); c != nil && k < len(e.cut) && len(v.Cuts) > 0 {
		win := v.Cuts[0].Shift(p)
		for _, cr := range v.Cuts[1:] {
			win = win.UnionBBox(cr.Shift(p))
		}
		ws[2] = sigWindow{len(e.metal) - 2 + k, 2, win.Bloat(c.Spacing)}
		n = 3
	}
	return ws, n
}

// layersFor sizes qc's focus layers for e.
func (f *focus) layersFor(e *Engine) {
	if len(f.layers) != len(e.all) {
		f.layers = make([]focusLayer, len(e.all))
		f.eng = nil
	}
}

// FocusVia widens the focus the next Focus through qc gathers on e so that
// it covers the signature windows of via v dropped at p.
func (e *Engine) FocusVia(v *tech.ViaDef, p geom.Point, qc *QueryCtx) {
	f := &qc.focus
	f.layersFor(e)
	ws, n := e.viaWindows(v, p)
	for _, w := range ws[:n] {
		l := &f.layers[w.slot]
		if l.wanted {
			l.want = l.want.UnionBBox(w.win)
		} else {
			l.want, l.wanted = w.win, true
		}
	}
}

// Focus replaces qc's focus with a gather of the windows FocusVia widened on
// e since the last Focus: one region query per widened layer, keeping every
// live object of qc's view touching that layer's window. The focus serves e
// until its object set next changes (Add, Remove, Reset); a window outside
// it, or on a layer it did not gather, still queries the index. Like a
// query, Focus writes nothing the engine owns.
func (e *Engine) Focus(qc *QueryCtx) {
	f := &qc.focus
	f.layersFor(e)
	f.eng, f.gen = e, e.gen
	f.recs = f.recs[:0]
	for s := range f.layers {
		l := &f.layers[s]
		l.held, l.wanted = l.wanted, false
		if !l.held {
			continue
		}
		l.win = l.want
		l.lo = int32(len(f.recs))
		qc.buf = e.queryIdxInto(e.all[s], l.win, qc.skip, qc.buf[:0])
		for _, id := range qc.buf {
			f.recs = append(f.recs, focusRec{r: e.rect(id), id: int32(id), net: e.objs[id].net})
		}
		l.hi = int32(len(f.recs))
	}
}

// focused returns the focus records of index slot s when qc holds a current
// gather on e whose window there covers win; ok is false otherwise. The
// records are every object touching the focus window, so the caller keeps
// those that touch win.
func (qc *QueryCtx) focused(e *Engine, s int, win geom.Rect) (recs []focusRec, ok bool) {
	f := &qc.focus
	if f.eng != e || f.gen != e.gen {
		return nil, false
	}
	l := &f.layers[s]
	if !l.held || !l.win.ContainsRect(win) {
		return nil, false
	}
	return f.recs[l.lo:l.hi], true
}

// ForeignNearVia reports whether any live object of qc's view touching the
// signature windows of via v at p lies outside both owned spans, [first,
// first+n) and [first2, first2+n2): whether the via's signature sees
// anything but those objects. held, when non-nil, is called with every
// object of the second span that touches a window, once per window it
// touches; the search stops at the first foreign object, so held has seen
// them all only when the answer is false. It reads qc's focus where that
// covers a window and queries the index otherwise; qc must not be nil.
func (e *Engine) ForeignNearVia(v *tech.ViaDef, p geom.Point, first, n, first2, n2 int, qc *QueryCtx, held func(id int)) bool {
	in := func(id, first, n int) bool { return id >= first && id-first < n }
	// owned reports whether id lies in a span, calling held for the second.
	owned := func(id int) bool {
		if in(id, first2, n2) {
			if held != nil {
				held(id)
			}
			return true
		}
		return in(id, first, n)
	}
	ws, nw := e.viaWindows(v, p)
	for _, w := range ws[:nw] {
		if recs, ok := qc.focused(e, w.slot, w.win); ok {
			for i := range recs {
				if rc := &recs[i]; rc.r.Touches(w.win) && !owned(int(rc.id)) {
					return true
				}
			}
			continue
		}
		qc.buf = e.queryIdxInto(e.all[w.slot], w.win, qc.skip, qc.buf[:0])
		for _, id := range qc.buf {
			if !owned(id) {
				return true
			}
		}
	}
	return false
}
