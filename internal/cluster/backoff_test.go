package cluster

import (
	"strings"
	"testing"

	"op2ca/internal/chaincfg"
	"op2ca/internal/core"
	"op2ca/internal/faults"
	"op2ca/internal/mesh"
	"op2ca/internal/partition"
)

// retryFixture is a minimal valid configuration for New validation tests.
func retryFixture() (m *mesh.FV3D, p *core.Program, nodes *core.Set, assign partition.Assignment) {
	m = mesh.Rotor(6, 5, 4)
	p = core.NewProgram()
	nodes = p.DeclSet(m.NNodes, "nodes")
	edges := p.DeclSet(m.NEdges, "edges")
	p.DeclMap(edges, nodes, 2, m.EdgeNodes, "e2n")
	p.DeclDat(nodes, 1, nil, "x")
	assign = partition.Block(m.NNodes, 2)
	return
}

// TestMaxRetriesValidation: every way of configuring a retry budget —
// Config, fault plan, per-chain override — is bounded, so an absurd budget
// fails fast instead of exponentiating virtual time.
func TestMaxRetriesValidation(t *testing.T) {
	m, p, nodes, assign := retryFixture()
	_ = m
	base := Config{Prog: p, Primary: nodes, Assign: assign, NParts: 2, Depth: 1}

	cfg := base
	cfg.MaxRetries = maxRetryBudget
	if _, err := New(cfg); err != nil {
		t.Errorf("MaxRetries at the budget should be accepted: %v", err)
	}
	cfg.MaxRetries = maxRetryBudget + 1
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "MaxRetries") {
		t.Errorf("MaxRetries over the budget = %v, want validation error", err)
	}

	cfg = base
	cfg.Faults = &faults.Plan{Drop: 0.1, MaxRetries: maxRetryBudget + 1}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "maxretries") {
		t.Errorf("fault-plan maxretries over the budget = %v, want validation error", err)
	}

	chains, err := chaincfg.ParseString("chain big maxretries=2000\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg = base
	cfg.Chains = chains
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "maxretries") {
		t.Errorf("per-chain maxretries over the budget = %v, want validation error", err)
	}
}
