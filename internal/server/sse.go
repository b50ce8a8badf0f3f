package server

import (
	"encoding/json"
	"net/http"
	"time"
)

// streamInterval is the progress cadence of the SSE endpoints.
const streamInterval = 100 * time.Millisecond

// handleStream serves one unit's progress as server-sent events: an
// immediate "progress" event, one more per tick, and a terminal "done"
// event carrying the final status once the unit finishes. A unit handed
// to the successor process at a checkpoint-and-stop drain does not
// finish here, so its stream ends without "done": the client reports
// the stream cut short instead of taking a "queued" status as final.
// The stream also ends when the client goes away; a reconnecting client
// simply gets a fresh snapshot, since events are snapshots rather than
// deltas.
func (s *Server) handleStream(k *kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		u := s.lookup(k, w, r)
		if u == nil {
			return
		}
		flusher, ok := w.(http.Flusher)
		if !ok {
			writeError(w, http.StatusInternalServerError, "server: response writer cannot stream")
			return
		}
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)

		write := func(event string) bool {
			data, err := json.Marshal(u.work.status())
			if err != nil {
				return false
			}
			if _, err := w.Write([]byte("event: " + event + "\ndata: ")); err != nil {
				return false
			}
			if _, err := w.Write(data); err != nil {
				return false
			}
			if _, err := w.Write([]byte("\n\n")); err != nil {
				return false
			}
			flusher.Flush()
			return true
		}

		if !write("progress") {
			return
		}
		ticker := time.NewTicker(streamInterval)
		defer ticker.Stop()
		for {
			select {
			case <-u.done:
				if u.finished() {
					write("done")
				}
				return
			case <-r.Context().Done():
				return
			case <-ticker.C:
				if !write("progress") {
					return
				}
			}
		}
	}
}
