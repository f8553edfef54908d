package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"latchchar"
)

// reference.json holds, in picoseconds, the TSPC and C²MOS contours traced
// by latchchar.Characterize with the contour workload's options (40 points
// per direction, both directions, exact evaluator) and, as "tspc-mc", the
// Monte-Carlo workload's nominal TSPC trace (fast path, resampled onto the
// probe grid). Regenerate it with -record-reference only when a change is
// meant to move the contours.
//
//go:embed reference.json
var referenceJSON []byte

// Output-check tolerances, in picoseconds.
const (
	// contourTolPS bounds how far a traced contour may sit from the
	// reference, both ways: far below the 5 ps Euler step, above the
	// femtosecond-level jitter of the solver's summation order.
	contourTolPS = 0.05
	// surfaceTolPS bounds the distance from the traced reference to the
	// 40×40 marching-squares contour: a quarter of its 20 ps grid cell
	// (the measured worst case is about 2 ps). Linear interpolation across
	// a curved contour errs with the square of the grid spacing, so a
	// coarser grid gets a tolerance scaled by that square.
	surfaceTolPS = 5.0
)

type polyline [][2]float64

// loadReference decodes the embedded reference contours, keyed by cell.
func loadReference() (map[string]polyline, error) {
	var ref map[string]polyline
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("decode reference contours: %w", err)
	}
	return ref, nil
}

// recordReference traces the reference contours and writes them to path.
func recordReference(path string) error {
	ref := map[string]polyline{}
	for _, name := range []string{"tspc", "c2mos"} {
		cell, err := latchchar.CellByName(name)
		if err != nil {
			return err
		}
		res, err := latchchar.Characterize(cell, contourOptions())
		if err != nil {
			return fmt.Errorf("characterize %s: %w", name, err)
		}
		ref[name] = contourPS(res.Contour)
	}
	mk, err := latchchar.CellMakerByName("tspc", latchchar.DefaultTiming())
	if err != nil {
		return err
	}
	mc, err := latchchar.MonteCarloContours(mk, latchchar.DefaultProcess(), mcOptions(1, false))
	if err != nil {
		return fmt.Errorf("monte-carlo nominal: %w", err)
	}
	ref["tspc-mc"] = contourPS(mc.Nominal.Contour)
	buf, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// contourPS converts a traced contour to (τs, τh) pairs in picoseconds.
func contourPS(ct *latchchar.Contour) polyline {
	out := make(polyline, len(ct.Points))
	for i, p := range ct.Points {
		out[i] = [2]float64{p.TauS * 1e12, p.TauH * 1e12}
	}
	return out
}

// segDist is the distance from p to the segment ab.
func segDist(p, a, b [2]float64) float64 {
	dx, dy := b[0]-a[0], b[1]-a[1]
	l2 := dx*dx + dy*dy
	t := 0.0
	if l2 > 0 {
		t = math.Max(0, math.Min(1, ((p[0]-a[0])*dx+(p[1]-a[1])*dy)/l2))
	}
	return math.Hypot(p[0]-a[0]-t*dx, p[1]-a[1]-t*dy)
}

// distTo is the distance from p to the nearest of the polylines.
func distTo(p [2]float64, polys ...polyline) float64 {
	d := math.Inf(1)
	for _, poly := range polys {
		if len(poly) == 1 {
			d = math.Min(d, math.Hypot(p[0]-poly[0][0], p[1]-poly[0][1]))
		}
		for i := 1; i < len(poly); i++ {
			d = math.Min(d, segDist(p, poly[i-1], poly[i]))
		}
	}
	return d
}

// maxDist is the largest distance from a point of pts to the polylines
// (+Inf when pts is empty, so an empty contour never passes).
func maxDist(pts polyline, polys ...polyline) float64 {
	if len(pts) == 0 {
		return math.Inf(1)
	}
	m := 0.0
	for _, p := range pts {
		m = math.Max(m, distTo(p, polys...))
	}
	return m
}

// checkContour reports whether every point of got lies within tol
// picoseconds of ref and, when full, every point of ref within tol of got,
// so the two describe the same curve. A partial check suits a shorter
// trace, which follows a prefix of the reference's path.
func checkContour(got, ref polyline, tol float64, full bool) error {
	if d := maxDist(got, ref); !(d <= tol) {
		return fmt.Errorf("contour strays %.3g ps from the reference (tolerance %g ps)", d, tol)
	}
	if !full {
		return nil
	}
	if d := maxDist(ref, got); !(d <= tol) {
		return fmt.Errorf("contour misses the reference by %.3g ps (tolerance %g ps)", d, tol)
	}
	return nil
}
