package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"seqver/internal/faults"
	"seqver/internal/metrics"
)

// The journal is the daemon's write-ahead log: an append-only JSONL
// file (<journal-dir>/journal.jsonl) recording every job lifecycle
// transition, so a crashed or SIGKILLed daemon restarts knowing which
// jobs were queued, in flight, or already decided. The canonical miter
// hash (cec.Miter.Hash) rides on a "keyed" record as the idempotency
// key: replay can satisfy an interrupted job straight from the result
// cache without re-running it, and re-running a decided miter can never
// flip its verdict because decided verdicts are pure functions of the
// miter.
//
// Durability model: each record is one write(2) of a complete line to
// an O_APPEND descriptor, so records survive process death (SIGKILL,
// OOM) without fsync; surviving power loss needs Options.JournalFsync.
// A torn tail — a partial last line from a crash mid-write — is
// truncated away on replay; a mangled interior line (torn by a crash
// between two appends, or injected by faults.CorruptJournal) is counted
// and skipped. Compaction rewrites the journal down to the remembered
// job set (temp file + rename, crash-safe at every instant) whenever it
// outgrows Options.JournalCompactBytes.

// Journal record ops. submitted/started/keyed/retry describe a live
// job; done/failed/rejected/quarantined are terminal.
const (
	jopSubmitted   = "submitted"
	jopStarted     = "started"
	jopKeyed       = "keyed"
	jopRetry       = "retry"
	jopDone        = "done"
	jopFailed      = "failed"
	jopRejected    = "rejected"
	jopQuarantined = "quarantined"
)

// journalRecord is one JSONL line. Only the fields relevant to the op
// are set: req on submitted, attempt on started/retry, key on keyed,
// result on done, error on failed/rejected/quarantined/retry.
type journalRecord struct {
	Op      string      `json:"op"`
	ID      string      `json:"id"`
	TS      int64       `json:"ts_unix_ns,omitempty"`
	Attempt int         `json:"attempt,omitempty"`
	Key     string      `json:"key,omitempty"`
	Error   string      `json:"error,omitempty"`
	Req     *JobRequest `json:"req,omitempty"`
	Result  *JobResult  `json:"result,omitempty"`
}

// journal owns the WAL file. Appends serialize under mu (distinct from
// the Server's job-table mutex; the two are never held together except
// journal.mu inside Server.mu during compaction snapshots).
type journal struct {
	path  string
	fsync bool

	mu    sync.Mutex
	f     *os.File
	bytes int64

	appends     *metrics.Counter
	torn        *metrics.Counter
	compactions *metrics.Counter
	replayed    *metrics.Counter
	bytesG      *metrics.Gauge
}

// replayedJob is one job reconstructed from the journal, in submission
// order.
type replayedJob struct {
	id       string
	req      *JobRequest
	attempts int
	key      string
	terminal string // terminal op, or "" for a live (queued/in-flight) job
	result   *JobResult
	errMsg   string
	created  time.Time
}

// openJournal opens (creating if needed) dir/journal.jsonl, replays its
// good prefix into per-job states, truncates a torn tail, and returns
// the journal ready for appends. The returned jobs preserve submission
// order.
func openJournal(dir string, fsync bool, reg *metrics.Registry) (*journal, []*replayedJob, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: journal dir: %w", err)
	}
	j := &journal{
		path:  filepath.Join(dir, "journal.jsonl"),
		fsync: fsync,
		appends: reg.Counter("seqverd_journal_appends_total",
			"Lifecycle records appended to the job journal."),
		torn: reg.Counter("seqverd_journal_torn_records_total",
			"Journal records dropped at replay as torn or corrupt."),
		compactions: reg.Counter("seqverd_journal_compactions_total",
			"Journal compaction rewrites."),
		replayed: reg.Counter("seqverd_journal_replayed_total",
			"Jobs reconstructed from the journal at startup."),
		bytesG: reg.Gauge("seqverd_journal_bytes",
			"Current size of the job journal file."),
	}
	jobs, goodLen, torn, err := replayJournal(j.path)
	if err != nil {
		return nil, nil, err
	}
	j.torn.Add(int64(torn))
	// Truncate the torn tail before reopening for append, so the next
	// record starts on a clean line boundary.
	if goodLen >= 0 {
		if err := os.Truncate(j.path, goodLen); err != nil {
			return nil, nil, fmt.Errorf("serve: journal truncate torn tail: %w", err)
		}
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: journal open: %w", err)
	}
	j.f = f
	if st, err := f.Stat(); err == nil {
		j.bytes = st.Size()
	}
	j.bytesG.Set(j.bytes)
	j.replayed.Add(int64(len(jobs)))
	return j, jobs, nil
}

// replayJournal reads the journal and folds records into per-job
// states. It returns the jobs in submission order, the byte length of
// the good prefix to keep (-1 when the file does not exist or needs no
// truncation beyond its current size), and the number of torn/corrupt
// records dropped.
func replayJournal(path string) (jobs []*replayedJob, keepLen int64, torn int, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, -1, 0, nil
	}
	if err != nil {
		return nil, -1, 0, fmt.Errorf("serve: journal read: %w", err)
	}
	byID := map[string]*replayedJob{}
	var order []string
	offset := int64(0)
	keepLen = -1 // -1: keep the whole file (no torn tail)
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// Torn tail: a record that never got its newline. Drop it and
			// tell the caller to truncate it away.
			torn++
			keepLen = offset
			break
		}
		line := data[:nl]
		data = data[nl+1:]
		lineLen := int64(nl + 1)
		var rec journalRecord
		if len(bytes.TrimSpace(line)) == 0 {
			offset += lineLen
			continue
		}
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" || rec.Op == "" {
			// A mangled interior record (crash between appends, fault
			// injection): skip it — later records still parse because
			// every append is a whole line.
			torn++
			offset += lineLen
			continue
		}
		offset += lineLen
		rj := byID[rec.ID]
		if rj == nil {
			if rec.Op != jopSubmitted || rec.Req == nil {
				// A record for a job whose submitted record was lost
				// (compacted away mid-crash or corrupt): nothing to rebuild
				// from; count it as torn.
				torn++
				continue
			}
			rj = &replayedJob{id: rec.ID, req: rec.Req, created: time.Unix(0, rec.TS)}
			byID[rec.ID] = rj
			order = append(order, rec.ID)
			continue
		}
		switch rec.Op {
		case jopSubmitted:
			// Duplicate submitted (compaction artifact): keep the first.
		case jopStarted:
			if rec.Attempt > rj.attempts {
				rj.attempts = rec.Attempt
			}
		case jopKeyed:
			rj.key = rec.Key
		case jopRetry:
			rj.errMsg = rec.Error
		case jopDone:
			rj.terminal, rj.result, rj.errMsg = StatusDone, rec.Result, ""
		case jopFailed:
			rj.terminal, rj.errMsg = StatusFailed, rec.Error
		case jopRejected:
			rj.terminal, rj.errMsg = StatusRejected, rec.Error
		case jopQuarantined:
			rj.terminal, rj.errMsg = StatusQuarantined, rec.Error
		default:
			// Forward compatibility: unknown ops are ignored.
		}
	}
	jobs = make([]*replayedJob, 0, len(order))
	for _, id := range order {
		jobs = append(jobs, byID[id])
	}
	return jobs, keepLen, torn, nil
}

// append writes one record as a complete line. Failures degrade to
// lost durability, never to a failed job: the daemon keeps serving from
// memory and logs nothing (the journal is an availability feature, not
// a correctness dependency — verdict correctness comes from the cache
// and the engine).
func (j *journal) append(rec journalRecord) {
	if j == nil {
		return
	}
	rec.TS = time.Now().UnixNano()
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if rec.Op != jopSubmitted && faults.Fire(faults.CorruptJournal) && len(line) > 2 {
		// Torn-record injection: half a record, newline-terminated so the
		// damage stays confined to this line. Replay must skip it — and
		// because a later record for the same job still replays, the blast
		// radius is one lifecycle transition, never the job. The submitted
		// record is exempt: under the O_APPEND single-write model it can
		// only tear when the daemon dies mid-write, i.e. before Submit
		// acked — which the client observes as a failed request, not an
		// accepted-then-forgotten job.
		line = line[:len(line)/2]
	}
	line = append(line, '\n')
	j.mu.Lock()
	if j.f != nil {
		if n, err := j.f.Write(line); err == nil {
			j.bytes += int64(n)
			if j.fsync {
				j.f.Sync()
			}
		}
	}
	j.bytesG.Set(j.bytes)
	j.mu.Unlock()
	j.appends.Inc()
}

// size returns the journal's current byte size.
func (j *journal) size() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.bytes
}

// rewrite atomically replaces the journal with the records produced by
// snapshot (the compacted view of the remembered job table): write a
// temp file in the same directory, fsync it, rename over the journal,
// reopen for append. At every instant the on-disk journal is either the
// old complete file or the new one. snapshot runs under the journal
// lock, so no concurrent append can land in the file being replaced and
// then be lost by the rename.
func (j *journal) rewrite(snapshot func() []journalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	recs := snapshot()
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, "journal-compact-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	now := time.Now().UnixNano()
	var size int64
	for _, rec := range recs {
		if rec.TS == 0 {
			rec.TS = now
		}
		line, err := json.Marshal(rec)
		if err != nil {
			tmp.Close()
			return err
		}
		line = append(line, '\n')
		n, err := tmp.Write(line)
		if err != nil {
			tmp.Close()
			return err
		}
		size += int64(n)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return err
	}
	if j.f != nil {
		j.f.Close()
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		j.f = nil
		return err
	}
	j.f = f
	j.bytes = size
	j.bytesG.Set(size)
	j.compactions.Inc()
	return nil
}

// close releases the journal's file handle (Drain).
func (j *journal) close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}
