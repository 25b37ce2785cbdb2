package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/db"
	"repro/internal/def"
	"repro/internal/lef"
	"repro/internal/pao"
	"repro/internal/suite"
)

// workload is one design the benchmark runs end to end: LEF/DEF bytes are
// parsed, analyzed, snapshotted, served and edited by ECO. The workloads
// differ in how much work the unique-instance classes share and in where the
// run's measuring time goes.
type workload struct {
	name string
	spec suite.Spec
	// batchShare is the share of --seconds spent on analysis samples; the
	// rest goes to the serving phases.
	batchShare float64
}

// ecoEvery is the interval between ECO posts in serving phase (b), the same
// on every workload so that commits stay comparable. A signature-changing
// move beside 2,000 req/s of reads commits in about 0.15 s on
// batch_highreuse, 0.3 s on batch_lowreuse and 0.55 s on serve_eco (median
// eco_commit_s on a 2-vCPU VM), so commits keep about 8%, 15% and 28% of
// phase (b) busy, and a serve_eco commit that runs three times its median
// still ends before the next post is due. A post that leaves more than
// ecoLate after its slot, because the commit before it ran long, marks the
// phase invalid.
const (
	ecoEvery = 2 * time.Second
	ecoLate  = 100 * time.Millisecond
)

func workloads() []workload {
	test1, _ := suite.ByName("pao_test1")
	test4, _ := suite.ByName("pao_test4")
	return []workload{
		{name: "batch_highreuse", spec: test1, batchShare: 0.5},
		{name: "batch_lowreuse", spec: test4.Scale(0.1), batchShare: 0.6},
		{name: "serve_eco", spec: suite.AES14, batchShare: 0.45},
	}
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// analysisConfig is the configuration every timed analysis uses: the paper's
// settings with two Step-1/2 workers.
func analysisConfig() pao.Config {
	cfg := pao.DefaultConfig()
	cfg.Workers = 2
	return cfg
}

// referenceConfig computes the reference result: caches off, one worker.
func referenceConfig() pao.Config {
	cfg := pao.DefaultConfig()
	cfg.Workers = 1
	cfg.NoCache = true
	return cfg
}

// inputs are the LEF/DEF bytes the program receives, generated from the seed.
type inputs struct {
	lef, def []byte
}

func makeInputs(w workload, seed int64) (inputs, error) {
	d, err := suite.Generate(w.spec.WithSeed(seed))
	if err != nil {
		return inputs{}, fmt.Errorf("generate %s: %w", w.spec.Name, err)
	}
	var lb, defBuf bytes.Buffer
	if err := lef.Write(&lb, d.Tech, d.Masters); err != nil {
		return inputs{}, fmt.Errorf("write LEF: %w", err)
	}
	if err := def.Write(&defBuf, d); err != nil {
		return inputs{}, fmt.Errorf("write DEF: %w", err)
	}
	return inputs{lef: lb.Bytes(), def: defBuf.Bytes()}, nil
}

// parse turns the LEF/DEF bytes into a loaded design.
func parse(in inputs) (*db.Design, error) {
	lib, err := lef.Parse(bytes.NewReader(in.lef))
	if err != nil {
		return nil, fmt.Errorf("parse LEF: %w", err)
	}
	d, err := def.Parse(bytes.NewReader(in.def), lib.Tech, lib.Masters)
	if err != nil {
		return nil, fmt.Errorf("parse DEF: %w", err)
	}
	return d, nil
}
