package readahead

import (
	"errors"
	"slices"
	"time"

	"repro/internal/blockdev"
	"repro/internal/features"
	"repro/internal/pagecache"
)

// FileTuner is the per-file variant of the readahead application: Figure 1
// of the paper shows KML driving both the block-layer readahead ioctl and
// "updating ra_pages for open files". Where the device-level Tuner applies
// one prediction to everything, the FileTuner keeps one feature window per
// inode and tunes each file's ra_pages separately — so a random-access
// table file can run with minimal readahead while a sequentially-read
// compaction input streams with a large window at the same time.
//
//kml:api the paper's per-file control surface (Figure 1); BenchmarkAblation_PerFileVsDevice drives it
type FileTuner struct {
	loop
	cache   *pagecache.Cache
	dev     *blockdev.Device
	model   Classifier
	norm    features.Normalizer
	policy  Policy
	files   map[uint64]*fileWindow
	inodes  []uint64 // scratch: the window's inodes, ascending
	featBuf []float64

	// MinEvents is the fewest events a file needs in a window before its
	// readahead is adjusted; quieter files keep their previous setting.
	minEvents uint64
	maxFiles  int

	decisions []FileDecision
}

// fileWindow is one inode's aggregation state.
type fileWindow struct {
	ext      *features.Extractor
	lastSeen time.Duration
}

// FileDecision is one per-file tuning step.
type FileDecision struct {
	Time    time.Duration
	Inode   uint64
	Class   int
	Sectors int
	Events  uint64
}

// FileTunerConfig parameterizes the per-file loop.
type FileTunerConfig struct {
	// Window is the decision interval; 0 means 1 second.
	Window time.Duration
	// Policy maps classes to sectors; zero means DefaultPolicy.
	Policy Policy
	// MinEvents gates per-file decisions; 0 means 64.
	MinEvents uint64
	// MaxFiles bounds the per-inode state (idle files are evicted);
	// 0 means 256. This is the §3.1 memory-capping discipline applied to
	// the application's own state.
	MaxFiles int
}

// NewFileTuner builds a per-file tuner. It needs the page cache (for the
// ra_pages updates) in addition to the device (for the current-readahead
// feature and the policy default).
//
//kml:api constructs the per-file control surface; see FileTuner
func NewFileTuner(cache *pagecache.Cache, dev *blockdev.Device, model Classifier, norm features.Normalizer, cfg FileTunerConfig) (*FileTuner, error) {
	if cache == nil || dev == nil || model == nil {
		return nil, errors.New("readahead: nil cache, device or model")
	}
	if cfg.Policy == (Policy{}) {
		cfg.Policy = DefaultPolicy(dev.Profile())
	}
	if cfg.MinEvents == 0 {
		cfg.MinEvents = 64
	}
	if cfg.MaxFiles == 0 {
		cfg.MaxFiles = 256
	}
	t := &FileTuner{
		cache:     cache,
		dev:       dev,
		model:     model,
		norm:      norm,
		policy:    cfg.Policy,
		files:     make(map[uint64]*fileWindow),
		featBuf:   make([]float64, features.Count),
		minEvents: cfg.MinEvents,
		maxFiles:  cfg.MaxFiles,
	}
	t.init(cfg.Window, t.consume)
	return t, nil
}

// consume routes drained records into per-inode windows.
func (t *FileTuner) consume(batch []features.Record) {
	for _, r := range batch {
		fw, ok := t.files[r.Inode]
		if !ok {
			if len(t.files) >= t.maxFiles {
				t.evictIdle()
			}
			fw = &fileWindow{ext: features.NewExtractor()}
			t.files[r.Inode] = fw
		}
		fw.ext.Add(r)
		fw.lastSeen = r.Time
	}
}

// evictIdle drops the least recently seen file's state; of files seen at
// the same instant, the lowest inode goes.
func (t *FileTuner) evictIdle() {
	var victim uint64
	var oldest time.Duration = -1
	for ino, fw := range t.files {
		if oldest < 0 || fw.lastSeen < oldest || fw.lastSeen == oldest && ino < victim {
			victim, oldest = ino, fw.lastSeen
		}
	}
	delete(t.files, victim)
}

// MaybeTick drains the collection ring and, once per window, classifies
// every active file, in ascending inode order, and updates its ra_pages.
func (t *FileTuner) MaybeTick(now time.Duration) {
	if !t.due(now) {
		return
	}
	t.inodes = t.inodes[:0]
	for ino := range t.files {
		t.inodes = append(t.inodes, ino)
	}
	slices.Sort(t.inodes)
	for _, ino := range t.inodes {
		fw := t.files[ino]
		events := fw.ext.Events()
		if events < t.minEvents {
			fw.ext.Reset()
			continue
		}
		raw := fw.ext.Emit(t.dev.ReadaheadSectors())
		t.norm.ApplyInto(t.featBuf, raw)
		class := t.model.Predict(t.featBuf)
		sectors := t.policy[class%len(t.policy)]
		t.cache.SetFileReadahead(pagecache.FileID(ino), sectors)
		t.decisions = append(t.decisions, FileDecision{
			Time:    now,
			Inode:   ino,
			Class:   class,
			Sectors: sectors,
			Events:  events,
		})
	}
}

// Decisions returns the per-file tuning history.
func (t *FileTuner) Decisions() []FileDecision { return t.decisions }

// ActiveFiles returns how many inodes currently hold window state.
func (t *FileTuner) ActiveFiles() int { return len(t.files) }
