package pao

import (
	"math"
	"sort"
	"strconv"

	"repro/internal/drc"
	"repro/internal/geom"
	"repro/internal/tech"
)

// orderPins sorts a unique instance's pins by x_avg + alpha*y_avg of their
// access points (Section III-B, Figure 5), ties broken by pin name. The
// first and last pins in this order are the boundary pins.
func (a *Analyzer) orderPins(ua *UniqueAccess) {
	for _, pa := range ua.Pins {
		x, y := pa.AvgPos()
		pa.SortKey = x + a.Cfg.Alpha*y
		if len(pa.APs) == 0 {
			pa.SortKey = math.Inf(1) // pins without access sort last
		}
	}
	sort.SliceStable(ua.Pins, func(i, j int) bool {
		if ua.Pins[i].SortKey != ua.Pins[j].SortKey {
			return ua.Pins[i].SortKey < ua.Pins[j].SortKey
		}
		return ua.Pins[i].Pin.Name < ua.Pins[j].Pin.Name
	})
}

// ViaPairClean reports whether two placed vias are mutually DRC-compatible:
// their metal enclosures respect spacing on every shared layer and their cuts
// respect cut spacing. This is the isDRCClean predicate of Algorithm 3 (only
// up-vias are checked, per the acceleration notes in Sections III-B/III-C).
// It allocates nothing.
func ViaPairClean(t *tech.Technology, v1 *tech.ViaDef, p1 geom.Point, n1 int, v2 *tech.ViaDef, p2 geom.Point, n2 int) bool {
	if v1 == nil || v2 == nil {
		return true
	}
	m1 := [2]geom.Rect{v1.BotRect(p1), v1.TopRect(p1)}
	m2 := [2]geom.Rect{v2.BotRect(p2), v2.TopRect(p2)}
	for i, r1 := range m1 {
		for j, r2 := range m2 {
			layer := v1.CutBelow + i
			if layer != v2.CutBelow+j {
				continue
			}
			l := t.Metal(layer)
			// At the layer's rule reach along either axis no short, spacing,
			// corner or end-of-line check can fire.
			if sep := max(r1.SepX(r2), r1.SepY(r2)); sep > 0 && sep >= drc.SigHalo(l) {
				continue
			}
			if !drc.MetalPairClean(l, r1, n1, r2, n2) || !drc.EOLPairClean(l, r1, n1, r2, n2) {
				return false
			}
		}
	}
	if v1.CutBelow == v2.CutBelow {
		c := t.Cut(v1.CutBelow)
		for _, c1 := range v1.Cuts {
			r1 := c1.Shift(p1)
			for _, c2 := range v2.Cuts {
				if !drc.CutPairClean(c, r1, c2.Shift(p2)) {
					return false
				}
			}
		}
	}
	return true
}

// apPairClean applies ViaPairClean to the primary vias of two access points.
// Access points without a via (planar-only) never conflict here.
func (a *Analyzer) apPairClean(ap1, ap2 *AccessPoint, net1, net2 int) bool {
	return ViaPairClean(a.Design.Tech, ap1.Primary(), ap1.Pos, net1, ap2.Primary(), ap2.Pos, net2)
}

// dpVertex is one cell of the Algorithm 2 DP array.
type dpVertex struct {
	cost int
	prev int // AP index in the previous group, -1 at the first group
}

// genPatterns implements the iterative access pattern generation flow
// (Figure 4): run the DP up to MaxPatterns times, penalizing boundary access
// points already used by earlier patterns (boundary conflict awareness), and
// validate each resulting pattern for unseen DRCs between non-neighboring
// access points.
func (a *Analyzer) genPatterns(ua *UniqueAccess) {
	groups := activeGroups(ua)
	if len(groups) == 0 {
		return
	}
	used := make(map[*AccessPoint]bool)
	seenPatterns := make(map[string]bool)
	rec := a.rec
	for it := 0; it < a.Cfg.MaxPatterns; it++ {
		choice := a.dpOnce(ua, groups, used)
		key := patternKey(choice)
		if seenPatterns[key] {
			if rec != nil {
				rec.RecordPattern(patternAudit(it, choice, a.patternCost(ua, choice), "duplicate", -1))
			}
			break // no diversity left; further iterations would repeat
		}
		seenPatterns[key] = true
		// Mark boundary APs used regardless of validation outcome so the next
		// iteration explores different boundary choices.
		first, last := groups[0], groups[len(groups)-1]
		if choice[first] >= 0 {
			used[ua.Pins[first].APs[choice[first]]] = true
		}
		if choice[last] >= 0 {
			used[ua.Pins[last].APs[choice[last]]] = true
		}
		pat := &AccessPattern{Choice: choice, Cost: a.patternCost(ua, choice)}
		if !a.validatePattern(ua, choice) {
			ua.DroppedPatterns++
			if rec != nil {
				rec.RecordPattern(patternAudit(it, choice, pat.Cost, "drc-conflict", -1))
			}
			continue
		}
		ua.Patterns = append(ua.Patterns, pat)
		if rec != nil {
			rec.RecordPattern(patternAudit(it, choice, pat.Cost, "", len(ua.Patterns)-1))
		}
	}
}

// patternAudit assembles the decision record for one DP iteration, copying
// the choice vector so the audit stays valid after the pattern mutates.
func patternAudit(it int, choice []int, cost int, reason string, index int) PatternAudit {
	return PatternAudit{
		Iteration: it,
		Choice:    append([]int(nil), choice...),
		Cost:      cost,
		Accepted:  reason == "",
		Reason:    reason,
		Index:     index,
	}
}

// activeGroups returns the ordered-pin indexes that have at least one access
// point; pins with none cannot join the graph.
func activeGroups(ua *UniqueAccess) []int {
	var out []int
	for i, pa := range ua.Pins {
		if len(pa.APs) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// patternKey encodes a choice vector for pattern dedup. Indices are written
// in full decimal (the old single-byte encoding truncated at 8 bits, so
// choices differing by 256 — or index 255 vs. the -1 sentinel — collided and
// distinct patterns were silently dropped as duplicates).
func patternKey(choice []int) string {
	b := make([]byte, 0, len(choice)*4)
	for _, c := range choice {
		b = strconv.AppendInt(b, int64(c), 10)
		b = append(b, ',')
	}
	return string(b)
}

// dpOnce runs Algorithm 2 once: a forward DP over the layered access point
// graph with Algorithm 3 edge costs, returning the traceback as a choice
// vector over ordered pins (-1 for pins without access points).
func (a *Analyzer) dpOnce(ua *UniqueAccess, groups []int, used map[*AccessPoint]bool) []int {
	n := len(groups)
	dp := make([][]dpVertex, n)
	for gi, pinIdx := range groups {
		aps := ua.Pins[pinIdx].APs
		dp[gi] = make([]dpVertex, len(aps))
		if gi == 0 {
			for ni, ap := range aps {
				c := ap.Cost()
				if a.Cfg.BCA && used[ap] {
					c += a.Cfg.PenaltyCost
				}
				dp[0][ni] = dpVertex{cost: c, prev: -1}
			}
			continue
		}
		prevAPs := ua.Pins[groups[gi-1]].APs
		for ni := range aps {
			best := math.MaxInt
			bestPrev := -1
			for pi := range prevAPs {
				if dp[gi-1][pi].cost == math.MaxInt {
					continue
				}
				c := dp[gi-1][pi].cost + a.edgeCost(ua, groups, dp, gi, pi, ni, used)
				if c < best {
					best = c
					bestPrev = pi
				}
			}
			dp[gi][ni] = dpVertex{cost: best, prev: bestPrev}
		}
	}
	// Traceback from the cheapest final vertex.
	lastGroup := n - 1
	bestNi, bestCost := -1, math.MaxInt
	for ni, v := range dp[lastGroup] {
		if v.cost < bestCost {
			bestCost = v.cost
			bestNi = ni
		}
	}
	choice := make([]int, len(ua.Pins))
	for i := range choice {
		choice[i] = -1
	}
	for gi := lastGroup; gi >= 0 && bestNi >= 0; gi-- {
		choice[groups[gi]] = bestNi
		bestNi = dp[gi][bestNi].prev
	}
	return choice
}

// edgeCost implements Algorithm 3: boundary-conflict penalty, DRC cost for
// conflicting neighbor access points, history-aware DRC cost against the
// prev-1 access point (deterministic, since dp already fixed prev's best
// predecessor), and otherwise the quality metric of the two access points.
func (a *Analyzer) edgeCost(ua *UniqueAccess, groups []int, dp [][]dpVertex, gi, prevIdx, curIdx int, used map[*AccessPoint]bool) int {
	prevPin := ua.Pins[groups[gi-1]]
	curPin := ua.Pins[groups[gi]]
	prev := prevPin.APs[prevIdx]
	cur := curPin.APs[curIdx]
	prevBoundary := gi-1 == 0
	curBoundary := gi == len(groups)-1

	if a.Cfg.BCA && prevBoundary && used[prev] {
		return a.Cfg.PenaltyCost
	}
	if a.Cfg.BCA && curBoundary && used[cur] {
		return a.Cfg.PenaltyCost
	}
	// Pins within a cell are distinct nets; use synthetic distinct ids.
	if !a.apPairClean(prev, cur, 1, 2) {
		return a.Cfg.DRCCost
	}
	if a.Cfg.HistoryAware && gi >= 2 {
		if pp := dp[gi-1][prevIdx].prev; pp >= 0 {
			prevPrev := ua.Pins[groups[gi-2]].APs[pp]
			if !a.apPairClean(prevPrev, cur, 1, 2) {
				return a.Cfg.DRCCost
			}
		}
	}
	return prev.Cost() + cur.Cost()
}

// validatePattern runs the final whole-pattern DRC validation: every pair of
// chosen access points (including non-neighbors in the pin order) must have
// compatible primary up-vias.
func (a *Analyzer) validatePattern(ua *UniqueAccess, choice []int) bool {
	var aps []*AccessPoint
	for i, c := range choice {
		if c >= 0 {
			aps = append(aps, ua.Pins[i].APs[c])
		}
	}
	for i := 0; i < len(aps); i++ {
		for j := i + 1; j < len(aps); j++ {
			if !a.apPairClean(aps[i], aps[j], 1, 2) {
				return false
			}
		}
	}
	return true
}

func (a *Analyzer) patternCost(ua *UniqueAccess, choice []int) int {
	c := 0
	for i, ci := range choice {
		if ci >= 0 {
			c += ua.Pins[i].APs[ci].Cost()
		}
	}
	return c
}
