package triage

import (
	"encoding/json"
	"testing"
)

// FuzzTriageParse: Parse never panics, and a policy it accepts
// re-marshals to JSON that parses to a policy with the same Hash.
func FuzzTriageParse(f *testing.F) {
	for _, seed := range []string{
		DefaultPolicyJSON,
		`{"name":"a","rules":[{"name":"r","score":"high","match":{"rule":"netflow-export"}}]}`,
		`{"name": "a", "rules": [ {"name":"r", "score":"high", "match": {"rule": "netflow-export"}} ]}`,
		`{"name":"order","rules":[{"name":"first","score":"low","match":{"rule":"netflow-export"}},{"name":"second","score":"high","match":{"rule":"netflow-export"}}]}`,
		`{"rules":[{"name":"r","score":"severe","match":{}}]}`,
		`{"rules":[{"name":"r","score":"high","match":{"sequence":["socket"]}}]}`,
		`{"rules":[{"score":"high","match":{}}]}`,
		`{"rules":[{"name":"r","score":"low","match":{}},{"name":"r","score":"high","match":{}}]}`,
		`{"rules":[{"name":"r","score":"low","match":{"min_bytes":-1}}]}`,
		`{"rules":[{"name":"r","score":"low","match":{"min_byte":3}}]}`,
		`{"name":"x","rules":[]} trailing`,
		`{"name":"x","rules":[]}{"name":"y","rules":[]}`,
		`nope`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		wire, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted policy does not marshal: %v", err)
		}
		q, err := Parse(wire)
		if err != nil {
			t.Fatalf("re-marshaled policy %s rejected: %v", wire, err)
		}
		if p.Hash() != q.Hash() {
			t.Fatalf("re-marshal changed the hash: %s vs %s (%s)", p.Hash(), q.Hash(), wire)
		}
	})
}
