//go:build race

package main

// raceEnabled reports that the race detector is on: the cluster then runs
// several times slower, and a fixed offered load overloads it.
const raceEnabled = true
