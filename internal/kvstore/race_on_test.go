//go:build race

package kvstore

const raceEnabled = true
