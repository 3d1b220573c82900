package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// This file renders diagnostics as SARIF 2.1.0 for GitHub code scanning
// (findings become PR annotations). It is derived from the same sorted,
// deduplicated diagnostic slice the text output prints, so both views agree
// on what was found.

// sarifLog is the minimal SARIF 2.1.0 document GitHub code scanning accepts.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders diags as one SARIF 2.1.0 run. File paths are made
// relative to moduleDir (code scanning wants repo-relative URIs); rule and doc
// name and describe the one rule every ruleId resolves to.
func WriteSARIF(w io.Writer, moduleDir, rule, doc string, diags []Diagnostic) error {
	rules := []sarifRule{{ID: rule, ShortDescription: sarifText{Text: doc}}}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: relPath(moduleDir, d.Pos.Filename)},
				Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "bbvet", Rules: rules}}, Results: results}},
	})
}

// relPath makes name moduleDir-relative with forward slashes, falling back
// to the original path when it lies outside the module.
func relPath(moduleDir, name string) string {
	if moduleDir == "" {
		return filepath.ToSlash(name)
	}
	rel, err := filepath.Rel(moduleDir, name)
	if err != nil || rel == ".." || len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator) {
		return filepath.ToSlash(name)
	}
	return filepath.ToSlash(rel)
}
