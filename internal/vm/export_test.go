package vm

import (
	"fmt"
	"reflect"
)

// Step is the reference interpreter with no observer: step(nil).
func (m *Machine) Step() (Trap, error) { return m.step(nil) }

// CheckSharedBlocks rebuilds every block in the process-wide table
// privately from its key bytes and requires the rebuild to equal the
// shared block: same Ins, Uops, NInstr, Fused and EndTrap. It returns how
// many blocks it checked.
func CheckSharedBlocks() (int, error) {
	sharedBlocks.mu.Lock()
	defer sharedBlocks.mu.Unlock()
	for key, b := range sharedBlocks.m {
		if priv := decodeBlock([]byte(key)); !reflect.DeepEqual(priv, b) {
			return 0, fmt.Errorf("shared block for % x differs from its private rebuild:\nshared  %+v\nprivate %+v", key, *b, *priv)
		}
	}
	return len(sharedBlocks.m), nil
}
