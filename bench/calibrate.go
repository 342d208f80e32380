package main

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"sync"
	"time"
)

// The reference host this benchmark was sized on is a shared 2-vCPU VM
// whose speed moves by 20-40 % between regimes that last from seconds to
// minutes (README.md, "Host speed"). Raw times taken minutes apart on the
// same code therefore differ by more than any bound worth gating on. The
// benchmark cancels this the way a lab cancels temperature drift: it
// brackets every measured segment with a fixed reference workload and
// scales the segment's time-based results to the speed the host showed
// around it.

// calibrationWork is the number of blend iterations each of the nClients
// calibration goroutines runs; refCalibration is how long that takes on the
// reference host in its fast regime. hostSpeed 1.0 therefore means "as fast
// as the reference host at its best".
const (
	calibrationWork   = 1500
	refCalibration    = 100 * time.Millisecond
	refCalibrationCPU = 115 * time.Millisecond
)

// calibrate runs the reference blend once on nClients (two) goroutines, the
// same parallelism the load generator uses, and returns the host's speed
// relative to the reference. The blend is standard-library work of the kinds
// the request path is made of (SHA-256 over a body, HMAC over a header,
// an Ed25519 verification, allocation and copying, a goroutine hand-off), so
// it is slowed by the same things and cannot be changed by a change to the
// system under test.
func calibrate() hostSpeed {
	priv := ed25519.NewKeyFromSeed(make([]byte, ed25519.SeedSize))
	pub := priv.Public().(ed25519.PublicKey)
	msg := make([]byte, 128)
	sig := ed25519.Sign(priv, msg)
	ping, pong := make(chan struct{}), make(chan struct{})
	var sinks [nClients][]byte // keeps the allocations live
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	for g := 0; g < nClients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			key := make([]byte, 32)
			for i := 0; i < calibrationWork; i++ {
				h := sha256.Sum256(buf)
				buf[i%len(buf)] ^= h[0]
				mac := hmac.New(sha256.New, key)
				mac.Write(buf[:64])
				key = mac.Sum(key[:0])
				if i%2 == 0 {
					ed25519.Verify(pub, msg, sig)
				}
				c := make([]byte, 2048)
				copy(c, buf)
				sinks[g] = c
				// Hand-off between the two goroutines, as between the
				// runtime's pipeline stages (this pairing is why the
				// blend runs on exactly two).
				if g == 0 {
					ping <- struct{}{}
					<-pong
				} else {
					<-ping
					pong <- struct{}{}
				}
			}
		}(g)
	}
	wg.Wait()
	_ = sinks
	wall := time.Since(start)
	cpu := processCPU() - cpu0
	return hostSpeed{
		wall: float64(refCalibration) / float64(wall),
		cpu:  float64(refCalibrationCPU) / float64(cpu),
	}
}

// hostSpeed is the host's speed relative to the reference, seen two ways.
// wall is work per wall-clock second: it drops when a neighbour steals the
// CPU and when instructions run slower, so it scales wall-clock results
// (throughput, latency). cpu is work per CPU-second: it drops only when
// instructions run slower, so it scales CPU-time results, which stolen time
// never enters.
type hostSpeed struct{ wall, cpu float64 }

// between is the speed to assume for a segment bracketed by a and b.
func between(a, b hostSpeed) hostSpeed {
	return hostSpeed{wall: (a.wall + b.wall) / 2, cpu: (a.cpu + b.cpu) / 2}
}
