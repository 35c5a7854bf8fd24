package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"xtalk/internal/pipeline"
)

// Bulk artifact transfer — the wire protocol the prewarm engine rides.
//
//	GET /artifacts/index        → JSON {"fingerprints": [...]}: every
//	                              fingerprint this daemon can hand over
//	                              (disk tier ∪ memory tier).
//	GET /artifacts?fps=a,b,...  → application/octet-stream: one
//	                              length-framed binary-codec artifact per
//	                              requested fingerprint, in request order.
//
// Each frame is a big-endian u64 payload length followed by the artifact's
// pipeline.EncodeBinary bytes; a zero length means "don't have it" and
// keeps the stream aligned with the request list. The framing carries no
// checksum of its own because the payload already does: receivers decode
// with pipeline.DecodeArtifact (self-verifying) and re-match the
// fingerprint before admitting anything, so a lying or corrupted sender
// costs a skipped frame, never a poisoned cache.

// ArtifactIndex is the GET /artifacts/index JSON reply.
type ArtifactIndex struct {
	Fingerprints []string `json:"fingerprints"`
}

const (
	// maxBulkRequest caps the fingerprints one /artifacts call may name;
	// clients batch below it (bulkBatchSize).
	maxBulkRequest = 512
	// bulkBatchSize is how many fingerprints the prewarm client asks for
	// per /artifacts call: large enough to amortize the round trip, small
	// enough that one call's URL stays a few KiB.
	bulkBatchSize = 64
	// maxFrameBytes bounds a single received frame; anything larger is a
	// protocol violation (artifacts are KiB-scale), not a real artifact.
	maxFrameBytes = 64 << 20
)

// frameBufPool recycles the per-frame scratch buffers the transfer sender
// encodes memory-tier artifacts into.
var frameBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 8192)
	return &b
}}

// transferKeys returns every fingerprint this daemon can serve over the
// bulk endpoint: the disk tier's index plus any memory-tier entries that
// have not (or not yet) been spilled.
func (s *Server) transferKeys() []string {
	var keys []string
	seen := map[string]struct{}{}
	if s.store != nil {
		for _, fp := range s.store.Keys() {
			seen[fp] = struct{}{}
			keys = append(keys, fp)
		}
	}
	for _, fp := range s.cache.Keys() {
		if _, ok := seen[fp]; !ok {
			keys = append(keys, fp)
		}
	}
	return keys
}

// handleArtifactIndex serves the transferable-fingerprint list.
func (s *Server) handleArtifactIndex(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET required"})
		return
	}
	keys := s.transferKeys()
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, http.StatusOK, ArtifactIndex{Fingerprints: keys})
}

// handleArtifacts streams the requested artifacts as length-framed binary
// codec payloads, one frame per requested fingerprint, in request order.
func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET required"})
		return
	}
	raw := strings.TrimSpace(r.URL.Query().Get("fps"))
	if raw == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "fps query parameter required"})
		return
	}
	fps := strings.Split(raw, ",")
	if len(fps) > maxBulkRequest {
		writeJSON(w, http.StatusBadRequest,
			ErrorResponse{Error: fmt.Sprintf("too many fingerprints: %d > %d", len(fps), maxBulkRequest)})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	var lenBuf [8]byte
	for _, fp := range fps {
		fp = strings.TrimSpace(fp)
		if b, ok := s.rawArtifact(fp); ok {
			binary.BigEndian.PutUint64(lenBuf[:], uint64(len(b.bytes)))
			if _, err := w.Write(lenBuf[:]); err != nil {
				b.release()
				return
			}
			_, err := w.Write(b.bytes)
			b.release()
			if err != nil {
				return
			}
			continue
		}
		binary.BigEndian.PutUint64(lenBuf[:], 0)
		if _, err := w.Write(lenBuf[:]); err != nil {
			return
		}
	}
}

// rawFrame is one encoded artifact plus its buffer-recycling hook.
type rawFrame struct {
	bytes []byte
	pool  *[]byte
}

func (f rawFrame) release() {
	if f.pool != nil {
		*f.pool = f.bytes[:0]
		frameBufPool.Put(f.pool)
	}
}

// rawArtifact returns fp's encoded bytes: straight from the disk tier when
// present (the file *is* the wire format), else encoded from the memory
// tier into a pooled buffer.
func (s *Server) rawArtifact(fp string) (rawFrame, bool) {
	if s.store != nil {
		if b, ok := s.store.GetRaw(fp); ok {
			return rawFrame{bytes: b}, true
		}
	}
	if art, ok := s.cache.Get(fp); ok {
		bp := frameBufPool.Get().(*[]byte)
		enc := art.AppendBinary((*bp)[:0])
		return rawFrame{bytes: enc, pool: bp}, true
	}
	return rawFrame{}, false
}

// fetchPeerIndex asks one peer for its transferable-fingerprint list.
func (s *Server) fetchPeerIndex(ctx context.Context, p *peer) ([]string, error) {
	var idx ArtifactIndex
	if err := s.peerCall(ctx, p, http.MethodGet, "/artifacts/index", nil, &idx); err != nil {
		return nil, err
	}
	return idx.Fingerprints, nil
}

// fetchPeerArtifacts pulls up to bulkBatchSize fingerprints from one peer in
// a single /artifacts call, decoding and verifying each frame, and hands
// every artifact whose self-check and fingerprint match to admit. Frames
// that are missing (zero length), corrupt, or misattributed are skipped —
// skipped and admitted counts come back to the caller.
func (s *Server) fetchPeerArtifacts(ctx context.Context, p *peer, fps []string, admit func(fp string, art *pipeline.CompiledArtifact)) (admitted, skipped int, err error) {
	if len(fps) > maxBulkRequest {
		return 0, 0, fmt.Errorf("batch of %d exceeds protocol cap %d", len(fps), maxBulkRequest)
	}
	err = s.peerCall(ctx, p, http.MethodGet, "/artifacts?fps="+strings.Join(fps, ","), nil, func(rd io.Reader) error {
		var lenBuf [8]byte
		for _, fp := range fps {
			if _, err := io.ReadFull(rd, lenBuf[:]); err != nil {
				return fmt.Errorf("peer %s: frame header: %w", p.addr, err)
			}
			n := binary.BigEndian.Uint64(lenBuf[:])
			if n == 0 {
				skipped++
				continue
			}
			if n > maxFrameBytes {
				return fmt.Errorf("peer %s: frame of %d bytes exceeds cap", p.addr, n)
			}
			buf := make([]byte, n)
			if _, err := io.ReadFull(rd, buf); err != nil {
				return fmt.Errorf("peer %s: frame body: %w", p.addr, err)
			}
			art, err := pipeline.DecodeArtifact(buf)
			if err != nil || art.Fingerprint != fp {
				// Self-check or attribution failed: the sender's copy is
				// damaged or lying. Never admit it; a real request will
				// recompile.
				skipped++
				continue
			}
			admit(fp, art)
			admitted++
		}
		return nil
	})
	return admitted, skipped, err
}

// readJSONBody decodes one JSON value from r, bounded to 64 MiB: a longer
// body is an error, never a truncated or fully buffered read.
func readJSONBody(r io.Reader, v any) error {
	b, err := io.ReadAll(io.LimitReader(r, maxFrameBytes+1))
	if err != nil {
		return err
	}
	if len(b) > maxFrameBytes {
		return fmt.Errorf("JSON body exceeds %d bytes", maxFrameBytes)
	}
	return json.Unmarshal(b, v)
}
