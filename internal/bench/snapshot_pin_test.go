package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dstore/internal/core"
)

// TestSnapshotBytesPinned pins the SHA-256 of the DSSNAP v1 stream a
// system writes after the produce phase. The stream is a persisted
// format (snapshot stores key on the version, not the bytes), so a
// rewrite of any component's in-memory layout — TLB replacement
// state, crossbar port tables — must leave these digests unchanged;
// only a deliberate format change with a version bump may move them.
func TestSnapshotBytesPinned(t *testing.T) {
	cases := []struct {
		mode core.Mode
		want string
	}{
		{core.ModeCCSM, "d53b8d2b7e38e46b3a47f35ac7133eb8124bfb51f3b95c1b2b0cd948f1763c6f"},
		{core.ModeDirectStore, "0608603e2a95574e2db352fb6088e521e5b77efe576a92567b8ecf4cf603c863"},
	}
	for _, tc := range cases {
		sys := core.NewSystem(core.DefaultConfig(tc.mode))
		w, err := Build(sys, "MT", Small)
		if err != nil {
			t.Fatalf("%s: build: %v", tc.mode, err)
		}
		if _, err := w.RunPhaseRangeContext(context.Background(), sys, 0, 1); err != nil {
			t.Fatalf("%s: produce phase: %v", tc.mode, err)
		}
		blob, err := sys.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", tc.mode, err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("MT/small/%s: DSSNAP digest %s, want %s (%d bytes)", tc.mode, got, tc.want, len(blob))
		}
	}
}
