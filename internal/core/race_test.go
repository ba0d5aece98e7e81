//go:build race

package core

// raceSlowdown scales the watchdog deadlines of tests whose real engine
// evaluations must finish inside the deadline: the race detector slows
// those evaluations several-fold.
const raceSlowdown = 5
