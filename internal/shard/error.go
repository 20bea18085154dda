package shard

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"fannr/internal/pipeline"
)

// Error is the typed fault a transport hands the coordinator: the HTTP
// status and stable taxonomy code a shard (or the transport itself)
// produced, plus the Retry-After hint when the shard shed load. Keeping
// the triple intact end-to-end is what lets the coordinator re-emit a
// shard's 503 as a coordinator 503 with the same code and Retry-After —
// a shard overload surfacing as a coordinator "internal" 500 would tell
// clients to stop retrying exactly when retrying is right.
type Error struct {
	Status     int    // HTTP status
	Code       string // stable taxonomy code ("overloaded", "timeout", ...)
	RetryAfter int    // seconds; > 0 only on shed responses
	Msg        string
}

func (e *Error) Error() string {
	return fmt.Sprintf("shard: %s (%d %s)", e.Msg, e.Status, e.Code)
}

// Retryable reports whether the coordinator may retry the call: server
// faults and overloads are retryable, client faults (4xx) are not.
func (e *Error) Retryable() bool { return e.Status >= 500 }

// Classify maps any error into the serving taxonomy (pipeline.Classify),
// so a query answered through the coordinator fails with the same
// {status, code} it would have failed with served directly. An *Error
// anywhere in the chain is already classified and passes through; a
// 503 carries retryAfter seconds under the pipeline's Retry-After rule.
func Classify(err error, retryAfter int) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	status, code := pipeline.Classify(err)
	e := &Error{Status: status, Code: code, Msg: err.Error()}
	if status == http.StatusServiceUnavailable {
		e.RetryAfter = pipeline.RetryAfterSecs(time.Duration(retryAfter) * time.Second)
	}
	return e
}

// writeError writes a classified error with its {error, code} body and
// Retry-After header — the shape the public server writes, which is what
// lets the coordinator relay a shard's fault without translation.
func writeError(w http.ResponseWriter, se *Error) {
	pipeline.WriteError(w, se.Status, se.Code, se.Msg, se.RetryAfter)
}
