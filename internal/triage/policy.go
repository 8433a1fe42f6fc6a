// Package triage turns raw FAROS detections into an operator-facing
// product surface: declarative risk policies scored over provenance
// graphs, and the lifecycle events that per-job timelines record and a
// live event stream carries.
//
// The paper's pitch is that provenance is the analyst's lens for
// *understanding* an in-memory injection, not just flagging it. A policy
// here is a first-match-wins list of rules, each matching shapes of the
// typed provenance graph a finding carries (chain length, distinct
// process count, node-kind sequences like netflow→process→export_table,
// byte-extent thresholds) and assigning a low/medium/high risk score.
// Scoring is strictly a view over the graph: it never changes what was
// flagged, only how the flag ranks — findings stay bit-identical with
// triage disabled, and a stored trace can be re-scored under a new
// policy without re-execution (the policy's content hash is part of the
// result-cache identity upstream).
package triage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"faros/internal/provgraph"
)

// Score is a finding's risk level. The zero value is ScoreLow, so an
// unmatched finding (and an unflagged run) naturally ranks lowest.
type Score uint8

// Risk levels, ordered: aggregation takes the maximum.
const (
	ScoreLow Score = iota
	ScoreMedium
	ScoreHigh
)

// String returns the score name (also its JSON encoding).
func (s Score) String() string {
	switch s {
	case ScoreLow:
		return "low"
	case ScoreMedium:
		return "medium"
	case ScoreHigh:
		return "high"
	}
	return fmt.Sprintf("score?%d", uint8(s))
}

// ParseScore is the inverse of Score.String.
func ParseScore(s string) (Score, error) {
	switch s {
	case "low":
		return ScoreLow, nil
	case "medium":
		return ScoreMedium, nil
	case "high":
		return ScoreHigh, nil
	}
	return 0, fmt.Errorf("triage: unknown score %q (want low, medium, or high)", s)
}

// MarshalJSON encodes the score as its name.
func (s Score) MarshalJSON() ([]byte, error) {
	if s > ScoreHigh {
		return nil, fmt.Errorf("triage: invalid score %d", uint8(s))
	}
	return json.Marshal(s.String())
}

// UnmarshalJSON decodes a score name, rejecting unknown values.
func (s *Score) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	v, err := ParseScore(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Aggregate reduces finding scores to a result-level score: the maximum,
// or ScoreLow when there are no findings (a clean run is low risk by
// definition, not unknown risk).
func Aggregate(scores ...Score) Score {
	top := ScoreLow
	for _, s := range scores {
		if s > top {
			top = s
		}
	}
	return top
}

// Match is one rule's predicate over a finding. Every set condition must
// hold (conjunction); the zero Match matches every finding, which is how
// a catch-all rule is written. All conditions are pure functions of the
// detection-rule name and the finding's provenance graph.
type Match struct {
	// Rule matches the detection rule that flagged the finding exactly
	// (e.g. "netflow-export"); empty matches any rule.
	Rule string `json:"rule,omitempty"`
	// Sequence is an ordered list of node kinds ("netflow", "process",
	// "file", "export_table") that must appear as a subsequence of the
	// finding's chains, concatenated in canonical chain order. A chain
	// like netflow→procA→procB plus an export_table target chain matches
	// ["netflow", "process", "export_table"].
	Sequence []string `json:"sequence,omitempty"`
	// MinChainLen requires some chain with at least this many nodes.
	MinChainLen int `json:"min_chain_len,omitempty"`
	// MinProcesses requires at least this many distinct process nodes in
	// the graph.
	MinProcesses int `json:"min_processes,omitempty"`
	// MinBytes requires some edge whose byte extent is at least this
	// large (how much data actually flowed, not how it flowed).
	MinBytes int `json:"min_bytes,omitempty"`
}

// Rule is one policy entry: a named predicate and the score it assigns.
type Rule struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Score       Score  `json:"score"`
	Match       Match  `json:"match"`
}

// Policy is an ordered, first-match-wins rule list. The first rule whose
// Match holds decides a finding's score; a finding no rule matches gets
// DefaultScore (low unless the policy says otherwise).
type Policy struct {
	Name         string `json:"name"`
	DefaultScore Score  `json:"default_score,omitempty"`
	Rules        []Rule `json:"rules"`

	hash string
}

// Assessment is one finding's triage outcome: the score and the policy
// rule that assigned it ("" when the default applied).
type Assessment struct {
	Score Score  `json:"score"`
	Rule  string `json:"rule,omitempty"`
}

// validKinds mirrors the provgraph node-kind namespace.
var validKinds = map[string]bool{
	"netflow": true, "process": true, "file": true, "export_table": true,
}

// Validate rejects malformed policies with descriptive errors: every
// rule needs a unique non-empty name, a known score, known sequence
// kinds, and non-negative thresholds.
func (p *Policy) Validate() error {
	seen := make(map[string]bool, len(p.Rules))
	for i, r := range p.Rules {
		if r.Name == "" {
			return fmt.Errorf("triage: rule %d: missing name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("triage: rule %d: duplicate name %q", i, r.Name)
		}
		seen[r.Name] = true
		if r.Score > ScoreHigh {
			return fmt.Errorf("triage: rule %q: invalid score %d", r.Name, uint8(r.Score))
		}
		for _, k := range r.Match.Sequence {
			if !validKinds[k] {
				return fmt.Errorf("triage: rule %q: unknown node kind %q in sequence (want netflow, process, file, or export_table)", r.Name, k)
			}
		}
		if r.Match.MinChainLen < 0 || r.Match.MinProcesses < 0 || r.Match.MinBytes < 0 {
			return fmt.Errorf("triage: rule %q: thresholds cannot be negative", r.Name)
		}
	}
	if p.DefaultScore > ScoreHigh {
		return fmt.Errorf("triage: invalid default score %d", uint8(p.DefaultScore))
	}
	return nil
}

// Parse decodes and validates a policy from its JSON form. Unknown
// fields are rejected so a typoed condition fails loudly instead of
// silently matching everything, and so is anything but whitespace after
// the policy: a policy file holds exactly one policy.
func Parse(data []byte) (*Policy, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var p Policy
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("triage: parse policy: %w", err)
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("triage: parse policy: data after the policy at offset %d", end)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Hash() // precompute the content identity
	return &p, nil
}

// Load reads and parses a policy file.
func Load(path string) (*Policy, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("triage: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (policy file %s)", err, path)
	}
	return p, nil
}

// Hash returns the policy's content identity: the SHA-256 of its
// canonical JSON re-encoding. Two policies with equal hashes score every
// finding identically, which is what lets the result cache fold the hash
// into its keys — re-scoring under a new policy can never serve a stale
// score, while restarting under the same policy still hits.
func (p *Policy) Hash() string {
	if p.hash != "" {
		return p.hash
	}
	canon, err := json.Marshal(p)
	if err != nil {
		// Policy fields are all marshalable types; an invalid Score is
		// the only way here, and Validate rejects it first.
		canon = []byte(fmt.Sprintf("unmarshalable:%v", err))
	}
	sum := sha256.Sum256(canon)
	p.hash = hex.EncodeToString(sum[:])
	return p.hash
}

// features are the graph measurements rules match against, computed once
// per finding.
type features struct {
	maxChainLen int
	processes   int
	maxBytes    int
	kinds       []string // chain node kinds, concatenated in canonical chain order
}

// measure extracts a graph's matchable features.
func measure(g *provgraph.Graph) features {
	var f features
	if g == nil {
		return f
	}
	for _, n := range g.Nodes {
		if n.Kind == provgraph.KindProcess {
			f.processes++
		}
	}
	for _, e := range g.Edges {
		if e.Bytes > f.maxBytes {
			f.maxBytes = e.Bytes
		}
	}
	for _, c := range g.Chains {
		if len(c.Nodes) > f.maxChainLen {
			f.maxChainLen = len(c.Nodes)
		}
		for _, ni := range c.Nodes {
			if ni >= 0 && ni < len(g.Nodes) {
				f.kinds = append(f.kinds, g.Nodes[ni].Kind.String())
			}
		}
	}
	return f
}

// subsequence reports whether needle appears in haystack in order (not
// necessarily contiguously).
func subsequence(haystack, needle []string) bool {
	i := 0
	for _, h := range haystack {
		if i == len(needle) {
			return true
		}
		if h == needle[i] {
			i++
		}
	}
	return i == len(needle)
}

// matches evaluates one rule predicate against a measured finding.
func (m Match) matches(detectRule string, f features) bool {
	if m.Rule != "" && m.Rule != detectRule {
		return false
	}
	if m.MinChainLen > 0 && f.maxChainLen < m.MinChainLen {
		return false
	}
	if m.MinProcesses > 0 && f.processes < m.MinProcesses {
		return false
	}
	if m.MinBytes > 0 && f.maxBytes < m.MinBytes {
		return false
	}
	if len(m.Sequence) > 0 && !subsequence(f.kinds, m.Sequence) {
		return false
	}
	return true
}

// ScoreFinding assigns one finding's risk: the first rule whose match
// holds wins; no match falls through to the policy default. detectRule
// is the detection rule that flagged the finding ("netflow-export",
// "foreign-code-export", "foreign-code-exec"), g its provenance graph.
func (p *Policy) ScoreFinding(detectRule string, g *provgraph.Graph) Assessment {
	f := measure(g)
	for _, r := range p.Rules {
		if r.Match.matches(detectRule, f) {
			return Assessment{Score: r.Score, Rule: r.Name}
		}
	}
	return Assessment{Score: p.DefaultScore}
}

// DefaultPolicyJSON is the shipped default policy: the provenance shapes
// of the paper's six in-memory injection attacks rank high, weaker
// signals rank medium, everything else low. It is ordinary policy JSON —
// copy it out, edit it, and load it with -triage-policy to customize.
const DefaultPolicyJSON = `{
  "name": "faros-default",
  "default_score": "low",
  "rules": [
    {
      "name": "remote-injected-api-resolution",
      "description": "network-sourced code that crossed a process boundary resolving kernel exports: the reflective-injection signature",
      "score": "high",
      "match": {"rule": "netflow-export", "min_processes": 2}
    },
    {
      "name": "remote-cross-process-code",
      "description": "network-sourced bytes crossed a process boundary before being flagged",
      "score": "high",
      "match": {"sequence": ["netflow", "process", "process"]}
    },
    {
      "name": "cross-process-hollowing",
      "description": "locally sourced foreign code planted across a process boundary reading the export table (Figure 10 hollowing)",
      "score": "high",
      "match": {"rule": "foreign-code-export", "min_processes": 2}
    },
    {
      "name": "foreign-code-export-read",
      "description": "foreign-written code reading the export table without crossing a process boundary",
      "score": "medium",
      "match": {"rule": "foreign-code-export"}
    },
    {
      "name": "tainted-code-execution",
      "description": "execution of tainted code (strict-mode rule); JIT-like but foreign",
      "score": "medium",
      "match": {"rule": "foreign-code-exec"}
    },
    {
      "name": "single-process-network-jit",
      "description": "network-tainted code executing inside its own generating process: indistinguishable from the paper's 2/20 JIT false positives, so it ranks low by default (load a stricter policy to re-score)",
      "score": "low",
      "match": {"rule": "netflow-export"}
    },
    {
      "name": "export-table-touch",
      "description": "any remaining flagged flow that reached the export table",
      "score": "medium",
      "match": {"sequence": ["export_table"]}
    }
  ]
}`

// Default returns the shipped default policy. The JSON is parsed once;
// a test locks it valid, so failure here is unreachable in a released
// binary.
func Default() *Policy {
	p, err := Parse([]byte(DefaultPolicyJSON))
	if err != nil {
		panic(fmt.Sprintf("triage: default policy invalid: %v", err))
	}
	return p
}
