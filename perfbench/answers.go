package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/db"
	"repro/internal/pao"
	"repro/internal/serve"
)

// expectedAnswer is the GET /v1/access body for inst, built from the
// reference result rather than from the server's own state: the answer the
// server gives after decoding its snapshot must match it byte for byte.
// Only clean classes are expected; the reference of every workload is clean.
func expectedAnswer(d *db.Design, ref *pao.Result, inst *db.Instance, source string) ([]byte, error) {
	ua := ref.ByInstance[inst.ID]
	if ua == nil {
		return nil, fmt.Errorf("instance %s has no class in the reference", inst.Name)
	}
	resp := serve.QueryResponse{
		Inst: inst.Name, Class: ua.UI.Signature(), Status: pao.StatusOK.String(),
		Source: source, Pattern: -1, Pins: []serve.PinAnswer{},
	}
	if idx, ok := ref.Selected[inst.ID]; ok && idx >= 0 && idx < len(ua.Patterns) {
		resp.Pattern = idx
	}
	for _, pa := range ua.Pins {
		ap := ref.AccessPointFor(inst, pa.Pin)
		if ap == nil {
			ans := pinCenter(inst, pa.Pin)
			if !ans.Failed {
				resp.Degraded = true
			}
			resp.Pins = append(resp.Pins, ans)
			continue
		}
		ans := serve.PinAnswer{
			Pin: pa.Pin.Name, X: ap.Pos.X, Y: ap.Pos.Y, Layer: ap.Layer,
			TypeX: ap.TypeX.String(), TypeY: ap.TypeY.String(),
		}
		if v := ap.Primary(); v != nil {
			ans.Via = v.Name
		}
		resp.Pins = append(resp.Pins, ans)
	}
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// pinCenter is the documented answer for a pin without an access point: the
// center of its first shape on its lowest layer.
func pinCenter(inst *db.Instance, pin *db.MPin) serve.PinAnswer {
	shapes := inst.PinShapes(pin)
	if len(shapes) == 0 {
		return serve.PinAnswer{Pin: pin.Name, Failed: true}
	}
	best := shapes[0]
	for _, sh := range shapes[1:] {
		if sh.Layer < best.Layer {
			best = sh
		}
	}
	c := best.Rect.Center()
	return serve.PinAnswer{Pin: pin.Name, X: c.X, Y: c.Y, Layer: best.Layer, Fallback: true}
}

// expectedAnswers hashes the expected body of every instance, in design
// order, for the given serving source.
func expectedAnswers(d *db.Design, ref *pao.Result, source string) ([]uint64, error) {
	out := make([]uint64, len(d.Instances))
	for i, inst := range d.Instances {
		b, err := expectedAnswer(d, ref, inst, source)
		if err != nil {
			return nil, err
		}
		out[i] = bodyHash(b)
	}
	return out, nil
}
