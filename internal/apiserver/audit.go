package apiserver

import (
	"time"

	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
)

// Audit records every error the API server returned and per-identity request
// counters. It feeds the user-unawareness analysis (Figure 7: in most
// experiments that end in failure, the cluster user never receives an error
// from the API server) and the propagation experiments of Table VI.
type Audit struct {
	loop *sim.Loop

	Entries []AuditEntry

	okByIdentity  map[string]int
	errByIdentity map[string]int

	undecodable      int
	droppedWrites    int
	tamperedOK       int
	tamperedErrored  int
	checksumFailures int
}

// AuditEntry is one failed request.
type AuditEntry struct {
	At       time.Duration
	Source   string
	Verb     Verb
	Kind     spec.Kind
	Name     string
	Err      string
	Tampered bool
}

// NewAudit returns an empty audit trail.
func NewAudit(loop *sim.Loop) *Audit {
	return &Audit{
		loop:          loop,
		okByIdentity:  make(map[string]int),
		errByIdentity: make(map[string]int),
	}
}

// reset empties the trail, keeping its memory.
func (a *Audit) reset() {
	clear(a.Entries)
	a.Entries = a.Entries[:0]
	clear(a.okByIdentity)
	clear(a.errByIdentity)
	a.undecodable, a.droppedWrites, a.tamperedOK, a.tamperedErrored, a.checksumFailures = 0, 0, 0, 0, 0
}

func (a *Audit) record(identity string, verb Verb, kind spec.Kind, name string, err error, tampered bool) error {
	a.errByIdentity[identity]++
	if tampered {
		a.tamperedErrored++
	}
	a.Entries = append(a.Entries, AuditEntry{
		At: a.loop.Now(), Source: identity, Verb: verb, Kind: kind, Name: name,
		Err: err.Error(), Tampered: tampered,
	})
	return err
}

func (a *Audit) countOK(identity string, _ Verb) {
	a.okByIdentity[identity]++
}

func (a *Audit) countDrop()            { a.droppedWrites++ }
func (a *Audit) countUndecodable()     { a.undecodable++ }
func (a *Audit) countTamperedOK()      { a.tamperedOK++ }
func (a *Audit) countChecksumFailure() { a.checksumFailures++ }

// ChecksumFailures returns how many stored objects failed critical-field
// checksum verification (the §VI-B redundancy-code mitigation).
func (a *Audit) ChecksumFailures() int { return a.checksumFailures }

// ErrorsBy returns the number of failed requests issued by identity.
func (a *Audit) ErrorsBy(identity string) int { return a.errByIdentity[identity] }

// OKBy returns the number of successful requests issued by identity.
func (a *Audit) OKBy(identity string) int { return a.okByIdentity[identity] }

// Undecodable returns how many store values failed to decode.
func (a *Audit) Undecodable() int { return a.undecodable }

// DroppedWrites returns how many store writes were dropped by injection.
func (a *Audit) DroppedWrites() int { return a.droppedWrites }

// TamperedPersisted returns how many tampered requests were persisted
// (the "Prop" column of Table VI).
func (a *Audit) TamperedPersisted() int { return a.tamperedOK }

// TamperedErrored returns how many tampered requests drew an error
// (the "Err" column of Table VI).
func (a *Audit) TamperedErrored() int { return a.tamperedErrored }
