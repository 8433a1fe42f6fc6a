package guest

import (
	"fmt"
	"sort"
)

// Registry is WinMini's configuration store, the analog of the Windows
// registry. Malware uses it for persistence (Run keys) and configuration;
// the Cuckoo baseline reports registry writes, and corpus samples exercise
// it so the event surface matches what a real sandbox sees.
type Registry struct {
	values map[string]string
	// Journal records set/delete operations in order.
	Journal []string
}

// NewRegistry returns an empty registry pre-seeded with a few system keys,
// so guests can read plausible values.
func NewRegistry() *Registry {
	return &Registry{
		values: map[string]string{
			`HKLM\SOFTWARE\WinMini\Version`:     "7.1",
			`HKLM\SYSTEM\ComputerName`:          "VICTIM-PC",
			`HKCU\Environment\TEMP`:             `C:\Temp`,
			`HKLM\SOFTWARE\WinMini\InstallDate`: "20180625",
		},
	}
}

// Get reads a value.
func (r *Registry) Get(key string) (string, bool) {
	v, ok := r.values[key]
	return v, ok
}

// Set writes a value, journaling the operation.
func (r *Registry) Set(key, value string) {
	r.values[key] = value
	r.Journal = append(r.Journal, fmt.Sprintf("set %s = %q", key, value))
}

// Delete removes a value.
func (r *Registry) Delete(key string) bool {
	if _, ok := r.values[key]; !ok {
		return false
	}
	delete(r.values, key)
	r.Journal = append(r.Journal, "delete "+key)
	return true
}

// Keys returns all keys, sorted (deterministic guest-visible behaviour).
func (r *Registry) Keys() []string {
	out := make([]string, 0, len(r.values))
	for k := range r.values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
