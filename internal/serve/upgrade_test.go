package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// legacySubmitted is a submitted record as an older daemon journaled
// it: the request carries field = value, an option the current daemon
// no longer has ("sat_mode") or no longer accepts (engine "sat").
func legacySubmitted(t *testing.T, id, golden, revised, field, value string) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"op": jopSubmitted, "id": id, "ts_unix_ns": time.Now().UnixNano(),
		"req": map[string]any{
			"golden":  map[string]string{"blif": golden},
			"revised": map[string]string{"blif": revised},
			field:     value,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// TestJournalReplayLegacySATMode is the upgrade path: a daemon restarted
// on a journal whose live jobs were submitted with "sat_mode" must
// re-enqueue them and reach the verdicts the pairs have, not drop them
// as torn records.
func TestJournalReplayLegacySATMode(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		legacySubmitted(t, "j-legacy-eq", goldenSeq, revisedSeq, "sat_mode", "fresh")+
			jline(t, journalRecord{Op: jopStarted, ID: "j-legacy-eq", Attempt: 1})+
			legacySubmitted(t, "j-legacy-bad", goldenSeq, revisedBad, "sat_mode", "fresh"))
	s, err := New(Options{JournalDir: dir, Workers: 1, DefaultBudget: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)
	for id, want := range map[string]string{"j-legacy-eq": "equivalent", "j-legacy-bad": "inequivalent"} {
		v := waitTerminal(t, s, id)
		if v.Status != StatusDone || v.Result == nil || v.Result.Verdict != want {
			t.Fatalf("%s after replay: %+v (error %q), want verdict %s", id, v, v.Error, want)
		}
		if !v.Recovered {
			t.Errorf("%s not marked recovered", id)
		}
	}
	if n := counterValue(t, s, "seqverd_journal_requeued_total"); n != 2 {
		t.Errorf("requeued counter = %d, want 2", n)
	}
	if n := counterValue(t, s, "seqverd_journal_torn_records_total"); n != 0 {
		t.Errorf("legacy records counted as torn: %d", n)
	}
}

// TestJournalReplayRemovedSATEngine is the upgrade path for jobs
// journaled with engine "sat" before that engine was removed. Replay
// does not re-validate requests, so each attempt takes its engine from
// degradedOptions like any other: a first attempt runs the engine as
// submitted, and the check's unknown-engine error fails the job; a job
// that had already started once is on attempt 2, where the ladder
// forces portfolio and the pair is decided. Neither job panics or stays
// queued.
func TestJournalReplayRemovedSATEngine(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		legacySubmitted(t, "j-sat-first", goldenSeq, revisedBad, "engine", "sat")+
			legacySubmitted(t, "j-sat-retry", goldenSeq, revisedSeq, "engine", "sat")+
			jline(t, journalRecord{Op: jopStarted, ID: "j-sat-retry", Attempt: 1}))
	s, err := New(Options{JournalDir: dir, Workers: 1, DefaultBudget: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(10 * time.Second)
	v := waitTerminal(t, s, "j-sat-first")
	if v.Status != StatusFailed || !strings.Contains(v.Error, `unknown engine "sat"`) {
		t.Fatalf("first attempt after replay: %+v (error %q), want failed on the unknown engine", v, v.Error)
	}
	v = waitTerminal(t, s, "j-sat-retry")
	if v.Status != StatusDone || v.Result == nil || v.Result.Verdict != "equivalent" {
		t.Fatalf("second attempt after replay: %+v (error %q), want done, equivalent", v, v.Error)
	}
	if n := counterValue(t, s, "seqverd_journal_requeued_total"); n != 2 {
		t.Errorf("requeued counter = %d, want 2", n)
	}
}

// TestSubmitSATModeRejected: a new submission may not carry the removed
// "sat_mode" field. The strict decoder answers 400 invalid_request and
// names the field instead of silently ignoring it.
func TestSubmitSATModeRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, err := json.Marshal(map[string]any{
		"golden":   map[string]string{"blif": goldenSeq},
		"revised":  map[string]string{"blif": revisedSeq},
		"sat_mode": "incremental",
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wrapped struct {
		Error apiError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wrapped); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || wrapped.Error.Code != "invalid_request" ||
		!strings.Contains(wrapped.Error.Message, `"sat_mode"`) {
		t.Fatalf("sat_mode submission: %d %+v", resp.StatusCode, wrapped.Error)
	}
}
