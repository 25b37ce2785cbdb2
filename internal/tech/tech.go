// Package tech models the technology side of the pin access problem: routing
// and cut layers, the design rules the DRC engine enforces, via definitions,
// and builders for the synthetic 45 nm, 32 nm and 14 nm nodes used by the
// benchmark suite (stand-ins for the ISPD-2018 contest technologies and the
// commercial 14 nm library in the paper).
//
// All dimensions are DBU with 1 DBU = 1 nm (DBUPerMicron = 1000).
package tech

import (
	"fmt"

	"repro/internal/geom"
)

// Dir is a routing direction.
type Dir uint8

const (
	// Horizontal means wires run along the x axis (tracks are y coordinates).
	Horizontal Dir = iota
	// Vertical means wires run along the y axis (tracks are x coordinates).
	Vertical
)

func (d Dir) String() string {
	if d == Horizontal {
		return "HORIZONTAL"
	}
	return "VERTICAL"
}

// Orthogonal returns the perpendicular direction.
func (d Dir) Orthogonal() Dir {
	if d == Horizontal {
		return Vertical
	}
	return Horizontal
}

// SpacingTable is a LEF PARALLELRUNLENGTH spacing table: required spacing as a
// function of the wider shape's width and the parallel run length between the
// two shapes. Row i applies to widths >= Widths[i]; column j applies to
// parallel run lengths >= PRLs[j]. Widths[0] and PRLs[0] are conventionally 0.
type SpacingTable struct {
	Widths  []int64
	PRLs    []int64
	Spacing [][]int64 // Spacing[row][col]
}

// Lookup returns the required spacing for the given (wider-shape) width and
// parallel run length. A zero-value table returns 0 (no constraint).
func (t *SpacingTable) Lookup(width, prl int64) int64 {
	if t == nil || len(t.Widths) == 0 {
		return 0
	}
	row := 0
	for i, w := range t.Widths {
		if width >= w {
			row = i
		}
	}
	col := 0
	for j, p := range t.PRLs {
		if prl >= p {
			col = j
		}
	}
	return t.Spacing[row][col]
}

// MaxSpacing returns the largest spacing in the table. DRC query windows are
// sized from RoutingLayer.SpacingReach, which also covers corner spacing.
func (t *SpacingTable) MaxSpacing() int64 {
	if t == nil {
		return 0
	}
	var m int64
	for _, row := range t.Spacing {
		for _, s := range row {
			if s > m {
				m = s
			}
		}
	}
	return m
}

// MinStepRule limits consecutive short outline edges (LEF MINSTEP). An edge
// shorter than MinStepLength is a "step"; at most MaxEdges consecutive steps
// are allowed. MaxEdges = 1 reproduces the classic one-notch rule.
type MinStepRule struct {
	MinStepLength int64
	MaxEdges      int
}

// Enabled reports whether the rule constrains anything.
func (r MinStepRule) Enabled() bool { return r.MinStepLength > 0 }

// CornerSpacingRule requires extra clearance off the convex corners of wide
// shapes (LEF5.7 CORNERSPACING, simplified): when either shape of a
// diagonally-adjacent pair is at least EligibleWidth wide, the corner-to-
// corner distance must be at least Spacing (instead of the PRL-table value).
type CornerSpacingRule struct {
	EligibleWidth int64
	Spacing       int64
}

// Enabled reports whether the rule constrains anything.
func (r CornerSpacingRule) Enabled() bool { return r.Spacing > 0 }

// EOLRule is a simplified end-of-line spacing rule (LEF SPACING ... ENDOFLINE):
// an outline edge shorter than EOLWidth requires EOLSpace clearance in front of
// it, within a window extending EOLWithin to each side.
type EOLRule struct {
	EOLWidth  int64
	EOLSpace  int64
	EOLWithin int64
}

// Enabled reports whether the rule constrains anything.
func (r EOLRule) Enabled() bool { return r.EOLSpace > 0 }

// RoutingLayer describes one metal layer and its rules.
type RoutingLayer struct {
	Name   string
	Num    int // 1-based metal number (M1 = 1)
	Dir    Dir // preferred routing direction
	Pitch  int64
	Width  int64 // default wire width
	MinWid int64 // minimum legal width
	Area   int64 // minimum polygon area (0 = unconstrained)
	// EncArea is the minimum enclosed (hole) area: a ring of metal may not
	// enclose a hole smaller than this (0 = unconstrained).
	EncArea int64
	Step    MinStepRule
	EOL     EOLRule
	Corner  CornerSpacingRule
	Spacing SpacingTable
}

// MinSpacing returns the required spacing between two shapes on this layer
// given the wider shape's width and their parallel run length.
func (l *RoutingLayer) MinSpacing(width, prl int64) int64 {
	return l.Spacing.Lookup(width, prl)
}

// SpacingReach is the farthest a metal-to-metal rule can fire on this layer:
// the spacing-table maximum, or the corner spacing when the corner rule is
// enabled and larger. DRC query windows are sized from it.
func (l *RoutingLayer) SpacingReach() int64 {
	r := l.Spacing.MaxSpacing()
	if l.Corner.Enabled() && l.Corner.Spacing > r {
		r = l.Corner.Spacing
	}
	return r
}

// CutLayer describes the via cut layer between metal Num and Num+1.
type CutLayer struct {
	Name     string
	BelowNum int   // metal below (cut k sits between metal k and k+1)
	Width    int64 // cut square side
	Spacing  int64 // minimum cut-to-cut spacing (edge to edge)
}

// ViaDef is a fixed via geometry: one or more cuts with bottom and top metal
// enclosures, all expressed relative to the via origin (the access point
// coordinate). Single-cut vias are the norm; multi-cut (redundant) variants
// carry several cut rectangles under one enclosure pair.
type ViaDef struct {
	Name     string
	CutBelow int         // metal number below the cuts; connects CutBelow and CutBelow+1
	BotEnc   geom.Rect   // bottom enclosure, origin-centered
	Cuts     []geom.Rect // cut shapes, origin-centered
	TopEnc   geom.Rect   // top enclosure, origin-centered
}

// BotRect returns the bottom enclosure placed at p.
func (v *ViaDef) BotRect(p geom.Point) geom.Rect { return v.BotEnc.Shift(p) }

// TopRect returns the top enclosure placed at p.
func (v *ViaDef) TopRect(p geom.Point) geom.Rect { return v.TopEnc.Shift(p) }

// CutRects returns every cut shape placed at p.
func (v *ViaDef) CutRects(p geom.Point) []geom.Rect {
	out := make([]geom.Rect, len(v.Cuts))
	for i, c := range v.Cuts {
		out[i] = c.Shift(p)
	}
	return out
}

// CutRect returns the first (primary) cut shape placed at p.
func (v *ViaDef) CutRect(p geom.Point) geom.Rect { return v.Cuts[0].Shift(p) }

// Technology bundles all layers, rules and vias for a node.
type Technology struct {
	Name         string
	NodeNM       int // 45, 32, 14
	DBUPerMicron int64
	SiteWidth    int64
	SiteHeight   int64
	Metals       []*RoutingLayer // Metals[0] is M1
	Cuts         []*CutLayer     // Cuts[k] connects Metals[k] and Metals[k+1]
	Vias         []*ViaDef

	byName map[string]*RoutingLayer
}

// NumMetals returns the number of routing layers.
func (t *Technology) NumMetals() int { return len(t.Metals) }

// Metal returns the routing layer with the given 1-based number.
func (t *Technology) Metal(num int) *RoutingLayer {
	if num < 1 || num > len(t.Metals) {
		return nil
	}
	return t.Metals[num-1]
}

// MetalByName returns the routing layer with the given name, or nil. The
// lookup map is rebuilt whenever layers have been added since the last call
// (the LEF reader grows Metals incrementally).
func (t *Technology) MetalByName(name string) *RoutingLayer {
	if t.byName == nil || len(t.byName) != len(t.Metals) {
		t.byName = make(map[string]*RoutingLayer, len(t.Metals))
		for _, l := range t.Metals {
			t.byName[l.Name] = l
		}
	}
	return t.byName[name]
}

// Cut returns the cut layer above metal num, or nil.
func (t *Technology) Cut(belowNum int) *CutLayer {
	if belowNum < 1 || belowNum > len(t.Cuts) {
		return nil
	}
	return t.Cuts[belowNum-1]
}

// ViasAbove returns the via definitions whose cut sits directly above metal
// num, in declaration order (the first entry is the conventional default).
func (t *Technology) ViasAbove(num int) []*ViaDef {
	var out []*ViaDef
	for _, v := range t.Vias {
		if v.CutBelow == num {
			out = append(out, v)
		}
	}
	return out
}

// ViaByName returns the via definition with the given name, or nil.
func (t *Technology) ViaByName(name string) *ViaDef {
	for _, v := range t.Vias {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// Validate performs internal consistency checks and returns the first problem
// found, or nil.
func (t *Technology) Validate() error {
	if len(t.Metals) == 0 {
		return fmt.Errorf("tech %s: no routing layers", t.Name)
	}
	if len(t.Cuts) != len(t.Metals)-1 {
		return fmt.Errorf("tech %s: %d cut layers for %d metals", t.Name, len(t.Cuts), len(t.Metals))
	}
	for i, l := range t.Metals {
		if l.Num != i+1 {
			return fmt.Errorf("tech %s: metal %q numbered %d at position %d", t.Name, l.Name, l.Num, i)
		}
		if l.Width <= 0 || l.Pitch < l.Width {
			return fmt.Errorf("tech %s: metal %q width %d pitch %d", t.Name, l.Name, l.Width, l.Pitch)
		}
		if i > 0 && t.Metals[i-1].Dir == l.Dir {
			return fmt.Errorf("tech %s: metals %q and %q share direction %v (must alternate)", t.Name, t.Metals[i-1].Name, l.Name, l.Dir)
		}
	}
	for _, v := range t.Vias {
		if v.CutBelow < 1 || v.CutBelow >= len(t.Metals)+0 && v.CutBelow > len(t.Cuts) {
			return fmt.Errorf("tech %s: via %q cut below metal %d out of range", t.Name, v.Name, v.CutBelow)
		}
		if len(v.Cuts) == 0 {
			return fmt.Errorf("tech %s: via %q has no cuts", t.Name, v.Name)
		}
		for _, c := range v.Cuts {
			if !v.BotEnc.ContainsRect(c) || !v.TopEnc.ContainsRect(c) {
				return fmt.Errorf("tech %s: via %q enclosures do not cover a cut", t.Name, v.Name)
			}
		}
	}
	return nil
}
