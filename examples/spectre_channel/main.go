// Spectre covert channel: Spectre variants leak speculatively loaded data
// through exactly the reuse side channel TimeCache eliminates (the paper
// calls flush+reload "a preferred covert channel" for Spectre I/II and
// NetSpectre). This example models the transmit/receive halves: a victim
// performs transient secret-indexed loads into a shared 256-line probe
// array, and an attacker reconstructs each byte by flush+reload.
//
//	go run ./examples/spectre_channel
package main

import (
	"fmt"
	"log"

	"timecache"
)

func main() {
	secret := []byte("squeamish ossifrage")
	fmt.Printf("victim's secret: %q\n\n", secret)

	for _, kind := range []string{"none", "timecache"} {
		res, err := timecache.RunSpectreChannel(kind, secret)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s ---\n", kind)
		fmt.Printf("recovered      : %q\n", printable(res.Recovered))
		fmt.Printf("bytes correct  : %d/%d   probe hits: %d\n\n",
			res.BytesCorrect, len(secret), res.Hits)
	}

	fmt.Println("Speculation-side defenses (InvisiSpec, SafeSpec) hide the transient")
	fmt.Println("loads; TimeCache instead removes the channel that exfiltrates them —")
	fmt.Println("so even a successful transient access has no attacker-visible effect.")
}

func printable(b []byte) string {
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 0x20 && c < 0x7f {
			out[i] = c
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
