package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"fannr/internal/core"
	"fannr/internal/lifecycle"
)

// ErrorResponse is the stable JSON error shape every non-2xx response
// carries. Code is machine-readable and maps 1:1 to the HTTP status:
// "invalid" (400), "not_found" (404), "too_large" (413), "overloaded"
// and "index_fault" (503, with a Retry-After header), "timeout" (504),
// "internal" (500).
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Classify maps an error into its HTTP status and stable code. The
// taxonomy: malformed or semantically invalid requests are the client's
// fault (400/413); a well-formed query with no answer is 404; a request
// shed by admission control or an open breaker is 503, the one retryable
// server-fault class — a quarantined or mid-swap index adds the sibling
// codes "index_fault" (the request that hit the rotted page) and
// "overloaded" (requests racing the quarantine); a query that outlived
// its deadline or its client is 504; everything unexpected — including
// engine panics — is a 500, never blamed on the client.
func Classify(err error) (int, string) {
	var tooBig *http.MaxBytesError
	var ifault *lifecycle.IndexFault
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.As(err, &ifault):
		return http.StatusServiceUnavailable, "index_fault"
	case errors.Is(err, lifecycle.ErrUnavailable):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, core.ErrInvalid):
		return http.StatusBadRequest, "invalid"
	case errors.Is(err, core.ErrNoResult):
		return http.StatusNotFound, "not_found"
	case errors.Is(err, core.ErrSaturated):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, core.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "timeout"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// RetryAfterSecs is the one Retry-After rule: the hint rounded to whole
// seconds and never below 1, because a 0 would tell clients to retry a
// shed request immediately.
func RetryAfterSecs(d time.Duration) int {
	return max(int(d.Round(time.Second)/time.Second), 1)
}

// Invalidf builds a client-fault error (classified 400 "invalid").
func Invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", core.ErrInvalid, fmt.Sprintf(format, args...))
}

// MaxBody bounds a /fann request body: point sets can be large, but not
// unbounded.
const MaxBody = 16 << 20

// DecodeJSON decodes the request body into v, reading at most limit
// bytes. An oversized body keeps its *http.MaxBytesError identity (413);
// everything else is a malformed request (400).
func DecodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err == nil {
		return nil
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return fmt.Errorf("decoding request: %w", err)
	}
	return fmt.Errorf("%w: decoding request: %s", core.ErrInvalid, err)
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes an already classified error; retryAfter > 0 adds
// the Retry-After header (seconds).
func WriteError(w http.ResponseWriter, status int, code, msg string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	WriteJSON(w, status, ErrorResponse{Error: msg, Code: code})
}

// Fail classifies err and writes it. Every 503 carries the Retry-After
// hint: after a shed, an open breaker or an index quarantine, retrying
// is exactly right.
func Fail(w http.ResponseWriter, err error, retryAfter time.Duration) {
	status, code := Classify(err)
	secs := 0
	if status == http.StatusServiceUnavailable {
		secs = RetryAfterSecs(retryAfter)
	}
	WriteError(w, status, code, err.Error(), secs)
}

// RecoverPanics converts handler panics into 500 responses. It rethrows
// http.ErrAbortHandler (the net/http idiom for deliberately dropping a
// connection) so streaming aborts keep working.
func RecoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			Fail(w, fmt.Errorf("internal error: %v", rec), 0)
		}()
		next.ServeHTTP(w, r)
	})
}
