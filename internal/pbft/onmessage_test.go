package pbft

import (
	"reflect"
	"strings"
	"testing"

	"rbft/internal/message"
	"rbft/internal/types"
)

// TestOnMessageErrorsCarryNoOutput pins validate-before-emit: every handler
// appends to the step's one Output, so a handler that rejects its input must
// do so before its first append — core.applyInstanceMessage discards the
// Output of a failed OnMessage, and effects emitted ahead of the rejection
// would be lost with it. Each row is one error OnMessage can return, fed to a
// fresh replica 2 (a backup in views 0 and 1) with durability on, so a
// premature journal record would show as much as a premature message. A
// sender outside the cluster is among them: vote vectors are indexed by it.
// Signatures are not among them: the preverifier is the one place that checks
// a VIEW-CHANGE's (message.TestPreverifyViewChangeBadSignature).
func TestOnMessageErrorsCarryNoOutput(t *testing.T) {
	const self = 2
	var tc *testCluster
	vc := func(node types.NodeID, edit func(*message.ViewChange)) message.ViewChange {
		v := message.ViewChange{Instance: 0, NewView: 1, Node: node}
		if edit != nil {
			edit(&v)
		}
		return v
	}
	// A NEW-VIEW for view 1 from its primary, node 1, over a full quorum.
	newView := func(edit func(*message.NewView)) func() message.Message {
		return func() message.Message {
			nv := &message.NewView{
				Instance: 0, View: 1, Node: 1,
				ViewChanges: []message.ViewChange{vc(0, nil), vc(1, nil), vc(3, nil)},
			}
			if edit != nil {
				edit(nv)
			}
			return nv
		}
	}
	msg := func(m message.Message) func() message.Message { return func() message.Message { return m } }
	proof := message.PreparedProof{Seq: 1, View: 0, Batch: []types.RequestRef{ref(0, 1)}}

	tests := []struct {
		name string
		msg  func() message.Message
		want string // substring of the error
	}{
		{"node-level type", msg(&message.Request{}), "unexpected message type"},
		{"PREPARE from node N", msg(&message.Prepare{Seq: 1, Node: 4}), "PREPARE from node 4 outside the cluster"},
		{"COMMIT from node -1", msg(&message.Commit{Seq: 1, Node: -1}), "COMMIT from node -1 outside the cluster"},
		{"CHECKPOINT from node N", msg(&message.Checkpoint{Seq: 128, Node: 4}), "CHECKPOINT from node 4 outside the cluster"},
		{"FETCH-RESP from node -1", msg(&message.FetchResp{Seq: 1, Node: -1}), "FETCH-RESP from node -1 outside the cluster"},
		{"PRE-PREPARE from node N", msg(&message.PrePrepare{Seq: 1, Node: 4}), "PRE-PREPARE from node 4 outside the cluster"},
		{"CHECKPOINT off the interval", msg(&message.Checkpoint{Seq: 100, Node: 1}), "not a multiple of the interval 128"},
		{"CHECKPOINT claiming this replica", msg(&message.Checkpoint{Seq: 128, Node: 2}), "claims node 2, this replica"},
		{"PRE-PREPARE instance", msg(&message.PrePrepare{Instance: 1, Seq: 1, Node: 0}), "PRE-PREPARE for instance 1"},
		{"PRE-PREPARE not from primary", msg(&message.PrePrepare{Seq: 1, Node: 3}), "primary is 0"},
		{"PREPARE instance", msg(&message.Prepare{Instance: 1, Seq: 1, Node: 1}), "PREPARE for instance 1"},
		{"PREPARE from primary", msg(&message.Prepare{Seq: 1, Node: 0}), "must not send PREPARE"},
		{"COMMIT instance", msg(&message.Commit{Instance: 1, Seq: 1, Node: 1}), "COMMIT for instance 1"},
		{"CHECKPOINT instance", msg(&message.Checkpoint{Instance: 1, Seq: 128, Node: 1}), "CHECKPOINT for instance 1"},
		{"FETCH instance", msg(&message.Fetch{Instance: 1, ToSeq: 1, Node: 1}), "FETCH for instance 1"},
		{"FETCH-RESP instance", msg(&message.FetchResp{Instance: 1, Seq: 1, Node: 1}), "FETCH-RESP for instance 1"},
		{"VIEW-CHANGE instance", msg(&message.ViewChange{Instance: 1, NewView: 1, Node: 1}), "VIEW-CHANGE for instance 1"},
		{"NEW-VIEW instance", newView(func(nv *message.NewView) { nv.Instance = 1 }), "NEW-VIEW for instance 1"},
		{"NEW-VIEW not from primary", newView(func(nv *message.NewView) { nv.Node = 3 }), "want primary 1"},
		{"NEW-VIEW mismatched VIEW-CHANGE", newView(func(nv *message.NewView) {
			nv.ViewChanges[2] = vc(3, func(v *message.ViewChange) { v.NewView = 2 })
		}), "embeds mismatched VIEW-CHANGE"},
		{"NEW-VIEW repeated VIEW-CHANGE", newView(func(nv *message.NewView) {
			nv.ViewChanges = []message.ViewChange{vc(0, nil), vc(1, nil), vc(1, nil), vc(3, nil)}
		}), "from 1 after 1, want ascending nodes"},
		{"NEW-VIEW swapped VIEW-CHANGEs", newView(func(nv *message.NewView) {
			nv.ViewChanges[0], nv.ViewChanges[1] = nv.ViewChanges[1], nv.ViewChanges[0]
		}), "from 0 after 1, want ascending nodes"},
		{"NEW-VIEW below quorum", newView(func(nv *message.NewView) {
			nv.ViewChanges = nv.ViewChanges[:2]
		}), "carries 2 view changes, need 3"},
		{"NEW-VIEW proposal count", newView(func(nv *message.NewView) {
			nv.PrePrepares = []message.PrePrepare{{View: 1, Seq: 1, Node: 1}}
		}), "re-issues 1 proposals, want 0"},
		{"NEW-VIEW proposal content", newView(func(nv *message.NewView) {
			nv.ViewChanges[0] = vc(0, func(v *message.ViewChange) { v.Prepared = []message.PreparedProof{proof} })
			nv.PrePrepares = []message.PrePrepare{{View: 1, Seq: 1, Node: 1, Batch: []types.RequestRef{ref(0, 2)}}}
		}), "proposal 1 does not match"},
	}
	fresh := func() *Instance {
		tc = newTestCluster(t, 1, func(c *Config) { c.Durable = true })
		return tc.replicas[self]
	}
	for _, tt := range tests {
		in := fresh()
		out, err := in.OnMessage(tt.msg(), tc.now)
		if err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: error %v, want one containing %q", tt.name, err, tt.want)
		}
		if !reflect.DeepEqual(out, Output{}) {
			t.Errorf("%s: rejected with a non-zero Output %+v", tt.name, out)
		}
	}

	// Control: the NEW-VIEW rows are rejected for their defect alone — the
	// well-formed message they are variations of is accepted and emits.
	in := fresh()
	out, err := in.OnMessage(newView(nil)(), tc.now)
	if err != nil || len(out.Records) == 0 || in.View() != 1 {
		t.Fatalf("valid NEW-VIEW: err %v, %d records, view %d", err, len(out.Records), in.View())
	}
}
