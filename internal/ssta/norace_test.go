//go:build !race

package ssta

// raceSlowdown scales the watchdog deadlines of tests whose real engine
// evaluations must finish inside the deadline (see race_test.go).
const raceSlowdown = 1
