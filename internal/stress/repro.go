package stress

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/dimacs"
	"repro/internal/graph"
	"repro/internal/mutate"
	"repro/internal/par"
)

// mutSidecar is the JSON schema of the optional <slug>.mut file written next
// to a repro's DIMACS pair: the failing mutation sequence plus which planted
// faults (repair, answer inheritance) were active when it tripped.
type mutSidecar struct {
	Fault        bool            `json:"fault,omitempty"`
	InheritFault bool            `json:"inherit_fault,omitempty"`
	Batches      []*mutate.Batch `json:"batches"`
}

// WriteRepro persists the failure's witness instance as a self-contained
// DIMACS pair: <dir>/<slug>.gr (graph, with the failure described in comment
// lines) and <dir>/<slug>.ss (source set). It returns the .gr path; replay
// with `stress -replay <path>` or by dropping the pair into the regression
// corpus under testdata/stress/.
func (f *Failure) WriteRepro(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	slug := fmt.Sprintf("repro-%s-seed%d", sanitize(f.Check), f.Seed)
	grPath := filepath.Join(dir, slug+".gr")
	comment := fmt.Sprintf("stress repro\ncheck: %s\ninstance: %s\nseed: %d\ndetail: %s",
		f.Check, f.Inst, f.Seed, strings.ReplaceAll(f.Detail, "\n", " "))
	gf, err := os.Create(grPath)
	if err != nil {
		return "", err
	}
	werr := dimacs.WriteGraph(gf, f.G, comment)
	if cerr := gf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	sf, err := os.Create(filepath.Join(dir, slug+".ss"))
	if err != nil {
		return "", err
	}
	werr = dimacs.WriteSources(sf, f.Sources)
	if cerr := sf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	if len(f.Mutations) > 0 {
		data, err := json.MarshalIndent(mutSidecar{Fault: f.MutateFault, InheritFault: f.InheritFault, Batches: f.Mutations}, "", "  ")
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dir, slug+".mut"), append(data, '\n'), 0o644); err != nil {
			return "", err
		}
	}
	return grPath, nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '-'
		}
	}, s)
}

// LoadRepro reads a repro .gr file plus its sibling .ss source file (same
// basename). Without a .ss file the sources default to {0}.
func LoadRepro(grPath string) (*LoadedRepro, error) {
	gf, err := os.Open(grPath)
	if err != nil {
		return nil, err
	}
	g, err := dimacs.ReadGraph(gf)
	gf.Close()
	if err != nil {
		return nil, fmt.Errorf("%s: %v", grPath, err)
	}
	sources := []int32{0}
	ssPath := strings.TrimSuffix(grPath, filepath.Ext(grPath)) + ".ss"
	if sf, err := os.Open(ssPath); err == nil {
		sources, err = dimacs.ReadSources(sf)
		sf.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %v", ssPath, err)
		}
	}
	for _, s := range sources {
		if int(s) >= g.NumVertices() {
			return nil, fmt.Errorf("%s: source %d out of range [0,%d)", grPath, s, g.NumVertices())
		}
	}
	rep := &LoadedRepro{Name: filepath.Base(grPath), G: g, Sources: sources}
	mutPath := strings.TrimSuffix(grPath, filepath.Ext(grPath)) + ".mut"
	if data, err := os.ReadFile(mutPath); err == nil {
		var sc mutSidecar
		if err := json.Unmarshal(data, &sc); err != nil {
			return nil, fmt.Errorf("%s: %v", mutPath, err)
		}
		rep.Mutations, rep.Fault, rep.InheritFault = sc.Batches, sc.Fault, sc.InheritFault
	}
	return rep, nil
}

// LoadedRepro is one replayable instance from disk. Mutations is non-nil when
// a .mut sidecar recorded a failing mutation sequence (Fault and InheritFault
// mark which planted bugs were active).
type LoadedRepro struct {
	Name         string
	G            *graph.Graph
	Sources      []int32
	Mutations    []*mutate.Batch
	Fault        bool
	InheritFault bool
}

// ReplayFile re-runs the full oracle stack on one repro file. A repro with a
// .mut sidecar replays its recorded mutation sequence (under the recorded
// fault flags, so planted-bug repros reproduce) before the standard checks.
func ReplayFile(cfg Config, rt par.Runtime, grPath string) (*Failure, error) {
	rep, err := LoadRepro(grPath)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(rep.Mutations) > 0 {
		if f := checkMutationSequence(cfg, rt, rep.Name, rep.G, rep.Sources, rep.Mutations, faults{rep.Fault, rep.InheritFault}); f != nil {
			f.Seed = cfg.Seed
			return f, nil
		}
		return nil, nil
	}
	return CheckInstance(cfg, rt, rep.Name, rep.G, rep.Sources), nil
}

// ReplayDir replays every .gr file in dir (sorted, so runs are
// deterministic) and returns the first failure.
func ReplayDir(cfg Config, rt par.Runtime, dir string) (*Failure, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".gr") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("no .gr files in %s", dir)
	}
	cfg = cfg.withDefaults()
	for _, path := range files {
		cfg.Logf("stress: replay %s", path)
		f, err := ReplayFile(cfg, rt, path)
		if err != nil {
			return nil, err
		}
		if f != nil {
			return f, nil
		}
	}
	return nil, nil
}
