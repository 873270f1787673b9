// Package journal is the keyed JSON-lines journal under the service's
// persistent stores: the semantic cache, the profile window store, the
// LLM ledger and the quality scorecards. It owns every file operation
// of such a store: replay on open (unreadable lines skipped, a torn
// final line terminated), supersede by key, tombstones, count/byte/age
// bounds, retained size, and compaction through a synced temp file and
// rename, written in the background without holding the journal's
// lock. A store keeps only its domain logic on top.
//
// A journal line is exactly the store's record marshaled with
// encoding/json; nothing is added around it.
package journal

import (
	"bufio"
	"bytes"
	"container/list"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// MaxLine is the longest journal line replay reads; a longer line is
// skipped like any other unreadable line.
const MaxLine = 8 << 20

// Config describes one store's journal: its file, how records are
// keyed and filtered, and the bounds on the live set.
type Config[R any] struct {
	// Path is the journal file; its directory is created on Open.
	Path string
	// Key identifies a record. A later record with the same key
	// supersedes the earlier one and becomes the newest.
	Key func(R) string
	// Valid filters replayed records; nil accepts every decoded record.
	Valid func(R) bool
	// Deleted reports a tombstone and Tombstone builds one for a key.
	// Both are nil for a store without tombstones.
	Deleted   func(R) bool
	Tombstone func(key string) R
	// Size estimates a record's retained bytes for the byte bound.
	Size func(R) int64
	// MaxEntries and MaxBytes bound the live set; ≤0 disables a bound.
	MaxEntries int
	MaxBytes   int64
	// MaxAge drops records whose Time is more than MaxAge before the
	// time of the record just inserted; ≤0 disables the age bound.
	MaxAge time.Duration
	Time   func(R) time.Time
	// OnReplay, when set, sees every valid record replay reads, before
	// the record is inserted. It may call the journal's methods.
	OnReplay func(j *Journal[R], r R)
}

// Journal is an in-memory live set of records, newest first, backed by
// an append-only JSON-lines file. All methods are safe for concurrent
// use.
type Journal[R any] struct {
	cfg Config[R]

	mu        sync.Mutex
	file      *os.File // nil after a failed write until a reopen succeeds
	closed    bool
	byKey     map[string]*list.Element
	order     *list.List // of *entry[R]; front = newest or most recently touched
	size      int64
	lines     int // journal lines, live or dead, since the last compaction
	evicted   int64
	writeErrs int64

	// compacting is set while a compaction writes its snapshot; pending
	// collects the lines appended meanwhile, which the compaction adds
	// to its file before the rename.
	compacting bool
	pending    [][]byte
	wg         sync.WaitGroup

	// openFile opens the journal and its temp file; tests substitute it
	// to inject faults.
	openFile func(name string, flag int, perm os.FileMode) (*os.File, error)
	// compactPause, when set by a test, runs after a compaction has
	// written its snapshot and before it takes the lock again.
	compactPause func()
}

type entry[R any] struct {
	key  string
	rec  R
	size int64
}

// Stats is a snapshot of the live set and the journal's fault counter.
type Stats struct {
	Entries int
	Bytes   int64
	// Evicted counts records dropped by the bounds since Open,
	// including during replay.
	Evicted int64
	// WriteErrors counts appends that failed since Open, including
	// attempts refused because the journal could not be reopened.
	WriteErrors int64
}

// Open replays the journal at cfg.Path (creating it if absent) and
// opens it for appending.
func Open[R any](cfg Config[R]) (*Journal[R], error) {
	return open(cfg, os.OpenFile)
}

// open is Open with the function that opens the journal's files.
func open[R any](cfg Config[R], openFile func(string, int, os.FileMode) (*os.File, error)) (*Journal[R], error) {
	if err := os.MkdirAll(filepath.Dir(cfg.Path), 0o755); err != nil {
		return nil, err
	}
	j := &Journal[R]{
		cfg:      cfg,
		byKey:    map[string]*list.Element{},
		order:    list.New(),
		openFile: openFile,
	}
	if err := j.replay(); err != nil {
		return nil, err
	}
	if err := j.reopen(); err != nil {
		return nil, err
	}
	return j, nil
}

// replay loads the journal oldest line first. It runs before the
// journal is shared, so it takes no lock and OnReplay may call methods
// that do.
func (j *Journal[R]) replay() error {
	f, err := os.Open(j.cfg.Path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	return eachLine(f, func(line []byte) {
		j.lines++
		var r R
		if len(line) == 0 || json.Unmarshal(line, &r) != nil {
			return
		}
		if j.cfg.Deleted != nil && j.cfg.Deleted(r) {
			j.removeLocked(j.cfg.Key(r))
			return
		}
		if j.cfg.Valid != nil && !j.cfg.Valid(r) {
			return
		}
		if j.cfg.OnReplay != nil {
			j.cfg.OnReplay(j, r)
		}
		j.insertLocked(r)
	})
}

// Scan decodes every readable line of the journal at path, oldest
// first, without opening it for writing. Unreadable lines are skipped.
func Scan[R any](path string, fn func(R)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return eachLine(f, func(line []byte) {
		var r R
		if len(line) > 0 && json.Unmarshal(line, &r) == nil {
			fn(r)
		}
	})
}

// eachLine calls fn with every line of r, without its newline, and with
// a final unterminated line. A line longer than MaxLine is passed as
// empty, so it still counts as a line.
func eachLine(r io.Reader, fn func(line []byte)) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var line []byte
	over := false
	for {
		chunk, err := br.ReadSlice('\n')
		switch {
		case over:
		case len(line)+len(chunk) > MaxLine+1:
			over, line = true, line[:0]
		default:
			line = append(line, chunk...)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if len(line) > 0 || over {
			fn(bytes.TrimSuffix(line, []byte{'\n'}))
		}
		line, over = line[:0], false
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// reopen opens the journal for appending and terminates a torn final
// line, so the next record starts a line of its own instead of being
// glued onto the fragment and lost at the next replay.
func (j *Journal[R]) reopen() error {
	f, err := j.openFile(j.cfg.Path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err == nil && info.Size() > 0 {
		var last [1]byte
		if _, err = f.ReadAt(last[:], info.Size()-1); err == nil && last[0] != '\n' {
			_, err = f.Write([]byte{'\n'})
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	j.file = f
	return nil
}

// Put journals r and makes it the newest live record, superseding the
// record with its key and applying the bounds. It first drops the live
// records keyed replaces, without tombstones; for a supersede that
// replay derives again by itself. When the write fails the live set is
// left as it was and the error is returned. After Close, Put updates
// the live set only.
func (j *Journal[R]) Put(r R, replaces ...string) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return j.write(line, func() {
		for _, key := range replaces {
			j.removeLocked(key)
		}
		j.insertLocked(r)
	})
}

// Delete journals a tombstone for key and drops its record.
func (j *Journal[R]) Delete(key string) error {
	line, err := json.Marshal(j.cfg.Tombstone(key))
	if err != nil {
		return err
	}
	return j.write(line, func() { j.removeLocked(key) })
}

// write appends line, applies the change to the live set, and starts a
// background compaction when one is due, so no caller waits for it.
func (j *Journal[R]) write(line []byte, apply func()) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.appendLocked(line); err != nil {
		return err
	}
	apply()
	if !j.closed {
		if snap, due := j.startCompactionLocked(); due {
			go j.compact(snap)
		}
	}
	return nil
}

// appendLocked writes one line. A failed write closes the handle, whose
// file may now end in a torn fragment; the next append reopens it,
// which terminates the fragment, and fails too while that reopen does.
func (j *Journal[R]) appendLocked(line []byte) error {
	if j.closed {
		return nil
	}
	if j.file == nil {
		if err := j.reopen(); err != nil {
			j.writeErrs++
			return err
		}
	}
	line = append(line, '\n')
	if _, err := j.file.Write(line); err != nil {
		j.writeErrs++
		j.file.Close()
		j.file = nil
		return err
	}
	j.lines++
	if j.compacting {
		j.pending = append(j.pending, line)
	}
	return nil
}

func (j *Journal[R]) insertLocked(r R) {
	key := j.cfg.Key(r)
	j.removeLocked(key)
	size := j.cfg.Size(r)
	j.byKey[key] = j.order.PushFront(&entry[R]{key: key, rec: r, size: size})
	j.size += size
	j.evictLocked(r)
}

func (j *Journal[R]) removeLocked(key string) {
	el, ok := j.byKey[key]
	if !ok {
		return
	}
	j.order.Remove(el)
	delete(j.byKey, key)
	j.size -= el.Value.(*entry[R]).size
}

// evictLocked drops the least recent records until every bound holds,
// always keeping the newest, even when it alone exceeds the byte bound.
// The age bound is checked against the least recent record only.
func (j *Journal[R]) evictLocked(newest R) {
	aged := j.cfg.MaxAge > 0 && j.cfg.Time != nil
	var cutoff time.Time
	if aged {
		cutoff = j.cfg.Time(newest).Add(-j.cfg.MaxAge)
	}
	for j.order.Len() > 1 {
		old := j.order.Back().Value.(*entry[R])
		over := (j.cfg.MaxEntries > 0 && j.order.Len() > j.cfg.MaxEntries) ||
			(j.cfg.MaxBytes > 0 && j.size > j.cfg.MaxBytes) ||
			(aged && j.cfg.Time(old.rec).Before(cutoff))
		if !over {
			return
		}
		j.removeLocked(old.key)
		j.evicted++
	}
}

// startCompactionLocked starts a compaction once dead lines
// (superseded, tombstoned, evicted) outnumber live records, returning
// a snapshot of the live set oldest first, so replay of the compacted
// journal rebuilds the same recency order.
func (j *Journal[R]) startCompactionLocked() ([]R, bool) {
	if j.compacting || j.lines <= 2*j.order.Len()+16 {
		return nil, false
	}
	snap := make([]R, 0, j.order.Len())
	for el := j.order.Back(); el != nil; el = el.Prev() {
		snap = append(snap, el.Value.(*entry[R]).rec)
	}
	j.compacting = true
	j.wg.Add(1)
	return snap, true
}

// compact writes snap to a temp file and syncs it without the lock,
// then, under the lock, appends the lines journaled since the snapshot
// and renames the temp file over the journal. The temp file's handle
// becomes the journal's, so no reopen can fail after the rename. A
// crash at any point leaves either the old journal or the new one with
// its complete snapshot; the lines appended during the compaction are
// as unsynced there as any append.
func (j *Journal[R]) compact(snap []R) {
	defer j.wg.Done()
	tmp := j.cfg.Path + ".tmp"
	f, err := j.writeSnapshot(tmp, snap)
	if j.compactPause != nil {
		j.compactPause()
	}
	var old *os.File
	n := len(snap)
	j.mu.Lock()
	if err == nil && len(j.pending) > 0 {
		_, err = f.Write(bytes.Join(j.pending, nil))
		n += len(j.pending)
	}
	if err == nil {
		err = os.Rename(tmp, j.cfg.Path)
	}
	if err == nil {
		old, j.file = j.file, f
		j.lines = n
	}
	j.compacting, j.pending = false, nil
	j.mu.Unlock()
	if err != nil {
		if f != nil {
			f.Close()
		}
		os.Remove(tmp)
		return
	}
	if old != nil {
		old.Close()
	}
	// Make the rename itself durable. Some file systems cannot sync a
	// directory; the rename is still atomic there.
	if d, err := os.Open(filepath.Dir(j.cfg.Path)); err == nil {
		d.Sync()
		d.Close()
	}
}

// writeSnapshot writes one line per record to tmp and syncs it, so the
// rename can never expose an incompletely written journal.
func (j *Journal[R]) writeSnapshot(tmp string, snap []R) (*os.File, error) {
	f, err := j.openFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	// Encode writes exactly json.Marshal's bytes and a newline.
	enc := json.NewEncoder(w)
	for _, r := range snap {
		if err = enc.Encode(r); err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Get returns the live record with the given key.
func (j *Journal[R]) Get(key string) (R, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if el, ok := j.byKey[key]; ok {
		return el.Value.(*entry[R]).rec, true
	}
	var zero R
	return zero, false
}

// Remove drops a record from the live set without journaling a
// tombstone; for a removal that replay derives again by itself.
func (j *Journal[R]) Remove(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.removeLocked(key)
}

// Touch makes a live record the most recent, so the bounds evict it
// last. Recency is journaled only by compaction's order.
func (j *Journal[R]) Touch(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if el, ok := j.byKey[key]; ok {
		j.order.MoveToFront(el)
	}
}

// Each calls fn on the live records, most recent first, until fn
// returns false. fn runs under the journal's lock and must not call the
// journal.
func (j *Journal[R]) Each(fn func(R) bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for el := j.order.Front(); el != nil; el = el.Next() {
		if !fn(el.Value.(*entry[R]).rec) {
			return
		}
	}
}

// Len returns the number of live records.
func (j *Journal[R]) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.order.Len()
}

// Stats returns a snapshot of the live set and the fault counter.
func (j *Journal[R]) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{Entries: j.order.Len(), Bytes: j.size, Evicted: j.evicted, WriteErrors: j.writeErrs}
}

// Close waits for a running compaction, compacts the journal if lines
// appended meanwhile made it due again, and closes the file. The live
// set stays readable.
func (j *Journal[R]) Close() error {
	j.mu.Lock()
	j.closed = true
	j.mu.Unlock()
	j.wg.Wait()
	j.mu.Lock()
	snap, due := j.startCompactionLocked()
	j.mu.Unlock()
	if due {
		j.compact(snap)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.file == nil {
		return nil
	}
	err := j.file.Close()
	j.file = nil
	return err
}
