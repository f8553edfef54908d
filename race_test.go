//go:build race

package latchchar

// raceEnabled reports a -race build; see TestCharacterizeBitwiseDeterministic.
const raceEnabled = true
