package cliutil

import (
	"os"

	"repro/internal/db"
	"repro/internal/def"
	"repro/internal/lef"
	"repro/internal/suite"
)

// DesignSource names a tool's input design: the suite testcase Case when it
// is set (scaled by Scale, reseeded when Seed is nonzero), otherwise the
// LEF/DEF pair.
type DesignSource struct {
	Case     string
	Scale    float64
	Seed     int64
	LEF, DEF string
}

// LoadDesign generates or parses the design src names.
func LoadDesign(src DesignSource) (*db.Design, error) {
	if src.Case != "" {
		spec, err := suite.ByName(src.Case)
		if err != nil {
			return nil, err
		}
		spec = spec.Scale(src.Scale)
		if src.Seed != 0 {
			spec = spec.WithSeed(src.Seed)
		}
		return suite.Generate(spec)
	}
	lf, err := os.Open(src.LEF)
	if err != nil {
		return nil, err
	}
	defer lf.Close()
	lib, err := lef.Parse(lf)
	if err != nil {
		return nil, err
	}
	df, err := os.Open(src.DEF)
	if err != nil {
		return nil, err
	}
	defer df.Close()
	return def.Parse(df, lib.Tech, lib.Masters)
}
