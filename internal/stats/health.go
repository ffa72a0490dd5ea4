package stats

// Machine-readable campaign health snapshots. closurex-fuzz -stats-json
// appends one JSON object per line (JSON Lines) so external supervisors —
// dashboards, the planned fleet service, harness-degradation monitors — can
// tail the file and watch per-shard health without parsing human output.

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// ShardHealthRecord is one shard's entry in a health snapshot. It mirrors
// fuzz.ShardHealth field-for-field; the stats package owns the wire schema
// so the fuzz engine and external consumers stay decoupled.
type ShardHealthRecord struct {
	Shard             int     `json:"shard"`
	Execs             int64   `json:"execs"`
	Crashes           int64   `json:"crashes"`
	Hangs             int64   `json:"hangs"`
	ExecRate          float64 `json:"exec_rate"`
	Restarts          int64   `json:"restarts"`
	Rebuilds          int64   `json:"rebuilds"`
	RestoreFailures   int64   `json:"restore_failures"`
	ConsecutiveFaults int64   `json:"consecutive_faults"`
	HangEscalations   int64   `json:"hang_escalations"`
	InboxDropped      int64   `json:"inbox_dropped"`
	Quarantined       bool    `json:"quarantined"`
	Stalled           bool    `json:"stalled"`
	LastProgress      string  `json:"last_progress,omitempty"` // RFC 3339
	LastFault         string  `json:"last_fault,omitempty"`
	MechDegraded      bool    `json:"mech_degraded"`
}

// HealthSnapshot is one line of the -stats-json stream.
type HealthSnapshot struct {
	Time          string              `json:"time"` // RFC 3339
	ElapsedSec    float64             `json:"elapsed_sec"`
	Execs         int64               `json:"execs"`
	Edges         int                 `json:"edges"`
	Corpus        int                 `json:"corpus"`
	Crashes       int                 `json:"crashes"`
	Hangs         int                 `json:"hangs"`
	Divergences   int                 `json:"divergences"`
	HealthyShards int                 `json:"healthy_shards"`
	Shards        []ShardHealthRecord `json:"shards,omitempty"`
}

// HealthLog appends snapshots to a JSON-lines file. Not safe for concurrent
// Append calls; the CLI's single status loop is the only writer.
type HealthLog struct {
	f *os.File
}

// OpenHealthLog creates (or truncates) the JSON-lines file at path.
func OpenHealthLog(path string) (*HealthLog, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("stats: open health log: %w", err)
	}
	return &HealthLog{f: f}, nil
}

// Append writes one snapshot line, stamping Time if the caller left it
// empty, and flushes it so tailing consumers see complete lines.
func (l *HealthLog) Append(s HealthSnapshot) error {
	if s.Time == "" {
		s.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	b, err := json.Marshal(&s)
	if err != nil {
		return fmt.Errorf("stats: marshal health snapshot: %w", err)
	}
	b = append(b, '\n')
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("stats: append health snapshot: %w", err)
	}
	return l.f.Sync()
}

// Close closes the underlying file.
func (l *HealthLog) Close() error { return l.f.Close() }
