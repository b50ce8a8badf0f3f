package msgnet

import (
	"math"
	"strings"
	"testing"

	"leanconsensus/internal/core"
	"leanconsensus/internal/dist"
	"leanconsensus/internal/register"
)

// TestSendSequenceExhausted: the event queue keys messages by a 32-bit
// send sequence, so the run that would send message 2^32 fails with an
// error instead of wrapping the key.
func TestSendSequenceExhausted(t *testing.T) {
	net, err := NewNetwork(Config{
		Nodes: []*ABDNode{NewABDNode(0, 1, core.NewLean(register.Layout{}, 0))},
		Delay: dist.Exponential{MeanVal: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.seq = math.MaxUint32 - 3 // a solo run sends 32 messages
	if _, err := net.Run(); err == nil || !strings.Contains(err.Error(), "4294967295 messages sent") {
		t.Fatalf("run past the send sequence: error %v, want the sequence-exhausted error", err)
	}
}
