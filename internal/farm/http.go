// The coordinator's HTTP surface and the worker-side client for it.
// Three JSON endpoints: POST /register (worker announces itself with its
// journal header — the coordinator applies journal.CheckHeader, so a
// worker built for another ISA or configuration is refused before it
// can contribute a single record), POST /lease (work assignment) and
// POST /complete (goal finished). Everything rides net/http over
// loopback; the farm is a single-host process fleet, not a cluster.

package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"selgen/internal/journal"
)

// registerRequest announces a worker to the coordinator.
type registerRequest struct {
	Worker int `json:"worker"`
	// Header is the worker's computed journal header; it must match the
	// coordinator's exactly (journal.CheckHeader), or the registration —
	// and with it the worker — is refused.
	Header journal.Header `json:"header"`
	// Telemetry is the base URL of the worker's telemetry server
	// (internal/telemetry), scraped by the coordinator's heartbeat.
	Telemetry string `json:"telemetry,omitempty"`
}

// leaseRequest asks for the next goal.
type leaseRequest struct {
	Worker int `json:"worker"`
}

// leaseResponse carries the assignment. Exactly one of Key/Done/WaitMS
// is meaningful: a granted goal, the all-work-finished signal, or how
// long to wait before asking again (every pending goal is leased
// elsewhere).
type leaseResponse struct {
	Key    *goalKeyWire `json:"key,omitempty"`
	Done   bool         `json:"done,omitempty"`
	WaitMS int64        `json:"waitMs,omitempty"`
}

// goalKeyWire mirrors driver.GoalKey on the wire.
type goalKeyWire struct {
	Group string `json:"group"`
	Index int    `json:"index"`
	Goal  string `json:"goal"`
}

// completeRequest reports a finished goal with its journal record (the
// same record the worker just fsync'd into its shard).
type completeRequest struct {
	Worker int                `json:"worker"`
	Record journal.GoalRecord `json:"record"`
}

// errorResponse is the body of every non-200 reply.
type errorResponse struct {
	Error string `json:"error"`
}

// serveHTTP wires the coordinator's endpoints onto a loopback listener.
func (c *coordinator) serveHTTP() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("farm: listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/register", c.handleRegister)
	mux.HandleFunc("/lease", c.handleLease)
	mux.HandleFunc("/complete", c.handleComplete)
	c.httpServer = &http.Server{Handler: mux}
	go c.httpServer.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return false
	}
	return true
}

func (c *coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := c.register(req.Worker, req.Header, req.Telemetry); err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	resp, err := c.lease(req.Worker)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (c *coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if !readJSON(w, r, &req) {
		return
	}
	if err := c.complete(req.Worker, req.Record); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// client is the worker's coordinator stub.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{Timeout: 30 * time.Second}}
}

func (cl *client) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("farm: encoding %s request: %w", path, err)
	}
	resp, err := cl.http.Post(cl.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("farm: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("farm: %s: reading response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("farm: %s: %s", path, e.Error)
		}
		return fmt.Errorf("farm: %s: HTTP %d", path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("farm: %s: decoding response: %w", path, err)
	}
	return nil
}
