package cliutil

import (
	"runtime"
	"runtime/debug"
)

// BuildInfo is the binary's provenance, surfaced at GET /version and in
// startup log lines so operators can tell exactly what is serving.
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	Module      string `json:"module,omitempty"`
	Version     string `json:"version,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	Modified    bool   `json:"modified,omitempty"` // dirty working tree at build
}

// Build reads the binary's embedded build information. Works in tests and
// `go run` too (module devel versions); fields absent from the build are "".
func Build() BuildInfo {
	bi := BuildInfo{GoVersion: runtime.Version()}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.Module = info.Main.Path
	bi.Version = info.Main.Version
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			bi.VCSRevision = s.Value
		case "vcs.time":
			bi.VCSTime = s.Value
		case "vcs.modified":
			bi.Modified = s.Value == "true"
		}
	}
	return bi
}

// Fields renders the build info as slog key-value pairs for a startup line.
func (b BuildInfo) Fields() []any {
	fs := []any{"go_version", b.GoVersion}
	if b.Module != "" {
		fs = append(fs, "module", b.Module)
	}
	if b.Version != "" {
		fs = append(fs, "version", b.Version)
	}
	if b.VCSRevision != "" {
		fs = append(fs, "vcs_revision", b.VCSRevision)
	}
	return fs
}
