package apiserver

// Audit counts the API server's failed requests per issuing identity, and three
// totals: tampered requests persisted and errored, and checksum failures. It
// feeds the user-unawareness analysis (Figure 7: in most experiments that end
// in failure, the cluster user never receives an error from the API server)
// and the propagation experiments of Table VI.
type Audit struct {
	errByIdentity map[string]int

	tamperedOK       int
	tamperedErrored  int
	checksumFailures int
}

// NewAudit returns an empty audit trail.
func NewAudit() *Audit {
	return &Audit{errByIdentity: make(map[string]int)}
}

// reset empties the trail, keeping its memory.
func (a *Audit) reset() {
	clear(a.errByIdentity)
	a.tamperedOK, a.tamperedErrored, a.checksumFailures = 0, 0, 0
}

// countError counts one failed request against the identity that issued it.
func (a *Audit) countError(identity string, tampered bool) {
	a.errByIdentity[identity]++
	if tampered {
		a.tamperedErrored++
	}
}

func (a *Audit) countTamperedOK()      { a.tamperedOK++ }
func (a *Audit) countChecksumFailure() { a.checksumFailures++ }

// ChecksumFailures returns how many stored objects failed critical-field
// checksum verification (the §VI-B redundancy-code mitigation).
func (a *Audit) ChecksumFailures() int { return a.checksumFailures }

// ErrorsBy returns the number of failed requests issued by identity.
func (a *Audit) ErrorsBy(identity string) int { return a.errByIdentity[identity] }

// TamperedPersisted returns how many tampered requests were persisted
// (the "Prop" column of Table VI).
func (a *Audit) TamperedPersisted() int { return a.tamperedOK }

// TamperedErrored returns how many tampered requests drew an error
// (the "Err" column of Table VI).
func (a *Audit) TamperedErrored() int { return a.tamperedErrored }
