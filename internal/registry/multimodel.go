package registry

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// Artifact kinds. A generation publishes one artifact per kind; the verdict
// classifier is mandatory, everything else optional.
const (
	// KindVerdict is the binary anomaly classifier (core.SaveModel).
	KindVerdict = "verdict"
	// KindType is the multi-class anomaly-type head (core.SaveTypeModel).
	KindType = "atype"
)

// ArtifactRef describes one kind-tagged artifact inside a generation.
type ArtifactRef struct {
	// Kind tags the model kind ("verdict", "atype", ...).
	Kind string `json:"kind"`
	// File is the artifact's file name inside the series directory.
	File string `json:"file"`
	// CRC is the CRC32-C of the artifact payload (cross-checks the frame).
	CRC uint32 `json:"crc"`
	// Size is the payload size in bytes.
	Size int64 `json:"size"`
	// Fingerprint is the deployment fingerprint the model was trained under.
	Fingerprint uint64 `json:"fingerprint"`
}

// validKind accepts short lowercase-alphanumeric kind tags — the set that
// embeds safely in both file names and JSON without escaping.
func validKind(kind string) bool {
	if kind == "" || len(kind) > 16 {
		return false
	}
	for _, c := range kind {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') {
			return false
		}
	}
	return true
}

// kindFileName names a kind's artifact file: the verdict's is
// 000000000001.model, a secondary kind's 000000000001.<kind>.model.
func kindFileName(gen uint64, kind string) string {
	if kind == KindVerdict {
		return genFileName(gen)
	}
	return fmt.Sprintf("%012d.%s.model", gen, kind)
}

// Ref returns the generation's artifact of a kind, or nil.
func (g *Generation) Ref(kind string) *ArtifactRef {
	for i := range g.Artifacts {
		if g.Artifacts[i].Kind == kind {
			return &g.Artifacts[i]
		}
	}
	return nil
}

// Kinds returns the generation's artifact kinds, verdict first then the
// rest ascending.
func (g *Generation) Kinds() []string {
	out := make([]string, 0, len(g.Artifacts))
	for _, ref := range g.Artifacts {
		if ref.Kind != KindVerdict {
			out = append(out, ref.Kind)
		}
	}
	sort.Strings(out)
	return append([]string{KindVerdict}, out...)
}

// LoadedSet is one loaded generation's artifact set: the validated payloads
// by kind plus the manifest entry. The verdict payload is always present;
// secondary kinds that failed validation are listed in Unavailable instead
// (damaged ones were quarantined on the way).
type LoadedSet struct {
	Generation
	// Payloads maps kind → validated payload. KindVerdict is always a key.
	Payloads map[string][]byte
	// Unavailable lists secondary kinds whose artifact was missing or failed
	// validation. The generation still serves: the verdict head never falls
	// back on a secondary kind's account.
	Unavailable []string
}

// PublishSet writes an artifact set as the series' next generation: every
// kind's file first (each temp file → fsync → atomic rename → directory
// fsync), then the single manifest rename that commits the whole set
// atomically. A crash before the manifest rename leaves the previous
// generation current and only stray files behind (swept by a later publish),
// so no generation is ever observable with a partial kind set. Old
// generations beyond Keep are pruned after the manifest is durable. payloads
// must include KindVerdict; other kinds are optional.
func (r *Registry) PublishSet(series string, info Info, payloads map[string][]byte) (Generation, error) {
	if len(payloads[KindVerdict]) == 0 {
		return Generation{}, fmt.Errorf("registry: publish %s: missing %s payload", series, KindVerdict)
	}
	kinds := make([]string, 0, len(payloads))
	for kind := range payloads {
		if !validKind(kind) {
			return Generation{}, fmt.Errorf("registry: publish %s: invalid artifact kind %q", series, kind)
		}
		if kind != KindVerdict {
			kinds = append(kinds, kind)
		}
	}
	sort.Strings(kinds)
	kinds = append([]string{KindVerdict}, kinds...)

	l := r.lockFor(series)
	l.Lock()
	defer l.Unlock()

	dir, err := r.seriesDir(series)
	if err != nil {
		return Generation{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Generation{}, fmt.Errorf("registry: %w", err)
	}

	man, err := r.readManifest(series)
	switch {
	case err == nil:
	case errors.Is(err, ErrUnknownSeries):
		man = &Manifest{Series: series}
	case errors.Is(err, ErrCorruptManifest):
		// readManifest already quarantined it; start a fresh index. The old
		// artifacts stay on disk for offline inspection but are orphaned.
		man = &Manifest{Series: series}
	default:
		return Generation{}, err
	}

	gen := nextGen(man, dir)
	r.sweepStray(dir, man)

	g := Generation{
		Gen:       gen,
		Points:    info.Points,
		CThld:     info.CThld,
		TrainedAt: info.TrainedAt.UTC(),
	}
	for _, kind := range kinds {
		payload := payloads[kind]
		ref := ArtifactRef{
			Kind:        kind,
			File:        kindFileName(gen, kind),
			CRC:         crc32.Checksum(payload, crcTable),
			Size:        int64(len(payload)),
			Fingerprint: info.Fingerprint,
		}
		if err := r.writeAtomic(dir, ref.File, frame(payload)); err != nil {
			return Generation{}, fmt.Errorf("registry: publish %s gen %d %s: %w", series, gen, kind, err)
		}
		g.Artifacts = append(g.Artifacts, ref)
	}
	// The top-level fields mirror the verdict artifact (kinds[0]).
	g.File, g.CRC, g.Size, g.Fingerprint = g.Artifacts[0].File, g.Artifacts[0].CRC, g.Artifacts[0].Size, g.Artifacts[0].Fingerprint

	man.Generations = append(man.Generations, g)
	man.Current = gen
	pruned := pruneManifest(man, r.keep)
	if err := r.writeManifest(dir, man); err != nil {
		return Generation{}, fmt.Errorf("registry: publish %s gen %d manifest: %w", series, gen, err)
	}
	// Only after the manifest is durable do the pruned artifacts go away; a
	// crash in between leaves orphans that the next publish sweeps.
	for _, p := range pruned {
		for _, ref := range p.Artifacts {
			_ = os.Remove(filepath.Join(dir, ref.File))
		}
	}
	return g, nil
}

// loadArtifact reads and validates one framed artifact against its manifest
// ref, quarantining a damaged file (rename to *.corrupt, checksum-failure
// count). A missing file reports fs.ErrNotExist without quarantine.
func (r *Registry) loadArtifact(dir string, ref ArtifactRef) ([]byte, error) {
	path := filepath.Join(dir, ref.File)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, crc, err := unframe(data)
	if err == nil && crc != ref.CRC {
		err = fmt.Errorf("frame checksum %08x does not match manifest %08x (%w)", crc, ref.CRC, ErrCorruptArtifact)
	}
	if err != nil {
		r.checksumFailures.Add(1)
		_ = os.Rename(path, path+".corrupt")
		return nil, err
	}
	return payload, nil
}

// LoadSet returns the newest loadable artifact set at or below the series'
// current generation. The fallback walk is driven by the verdict artifact
// alone: a damaged verdict quarantines it and tries the next older
// generation, while a damaged or missing secondary kind is quarantined (when
// damaged) and merely listed in Unavailable — one torn kind costs that kind,
// never the generation. Generations newer than current (rolled back from)
// are not considered.
func (r *Registry) LoadSet(series string) (*LoadedSet, error) {
	l := r.lockFor(series)
	l.Lock()
	defer l.Unlock()

	man, err := r.readManifest(series)
	if err != nil {
		return nil, err
	}
	dir, err := r.seriesDir(series)
	if err != nil {
		return nil, err
	}
	if len(man.Generations) == 0 {
		return nil, fmt.Errorf("registry: %s: %w", series, ErrNoArtifact)
	}

	// Candidates: current first, then strictly older, newest first.
	var candidates []Generation
	for i := len(man.Generations) - 1; i >= 0; i-- {
		if g := man.Generations[i]; g.Gen <= man.Current {
			candidates = append(candidates, g)
		}
	}
	changed := false
	var lastErr error
	for _, g := range candidates {
		vref := g.Ref(KindVerdict)
		if vref == nil {
			lastErr = fmt.Errorf("gen %d: no %s artifact (%w)", g.Gen, KindVerdict, ErrCorruptArtifact)
			continue
		}
		payload, err := r.loadArtifact(dir, *vref)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			if errors.Is(err, ErrCorruptArtifact) {
				changed = true
			}
			lastErr = fmt.Errorf("gen %d: %w", g.Gen, err)
			continue
		}
		set := &LoadedSet{Generation: g, Payloads: map[string][]byte{KindVerdict: payload}}
		for _, ref := range g.Artifacts {
			if ref.Kind == KindVerdict {
				continue
			}
			p, err := r.loadArtifact(dir, ref)
			if err != nil {
				set.Unavailable = append(set.Unavailable, ref.Kind)
				continue
			}
			set.Payloads[ref.Kind] = p
		}
		if changed && g.Gen != man.Current {
			// Persist the fallback so operators see what is actually served.
			man.Current = g.Gen
			_ = r.writeManifest(dir, man)
		}
		return set, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("registry: %s: %w (%w)", series, lastErr, ErrNoArtifact)
	}
	return nil, fmt.Errorf("registry: %s: %w", series, ErrNoArtifact)
}

// QuarantineKind sets one kind of one generation aside (renames its file to
// *.corrupt), for callers that discover higher-level damage in a secondary
// artifact — e.g. a type snapshot that decodes but fails its version check.
// The manifest entry is kept so the gap is auditable; the generation's other
// kinds keep serving.
func (r *Registry) QuarantineKind(series string, gen uint64, kind string) error {
	l := r.lockFor(series)
	l.Lock()
	defer l.Unlock()

	man, err := r.readManifest(series)
	if err != nil {
		return err
	}
	dir, err := r.seriesDir(series)
	if err != nil {
		return err
	}
	for _, g := range man.Generations {
		if g.Gen != gen {
			continue
		}
		ref := g.Ref(kind)
		if ref == nil {
			return fmt.Errorf("registry: quarantine %s gen %d: no %q artifact", series, gen, kind)
		}
		path := filepath.Join(dir, ref.File)
		switch err := os.Rename(path, path+".corrupt"); {
		case err == nil:
			r.checksumFailures.Add(1)
		case !errors.Is(err, fs.ErrNotExist):
			return fmt.Errorf("registry: quarantine %s gen %d %s: %w", series, gen, kind, err)
		}
		return nil
	}
	return fmt.Errorf("registry: quarantine %s: no generation %d", series, gen)
}
