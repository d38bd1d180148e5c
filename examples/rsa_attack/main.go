// RSA key extraction (paper §VI-A2): a flush+reload attacker monitors the
// Square/Multiply/Reduce entry lines of a shared GnuPG-style library while
// a victim exponentiates with a secret key. On a conventional cache the
// attacker reads the key bit-for-bit; with TimeCache it observes nothing.
//
//	go run ./examples/rsa_attack
package main

import (
	"fmt"
	"log"

	"timecache"
)

func main() {
	const keyBits = 96
	const seed = 0xC0DE

	fmt.Println("flush+reload against square-and-multiply RSA")
	fmt.Printf("key length: %d bits, seed %#x\n\n", keyBits, seed)

	for _, kind := range []string{"none", "timecache"} {
		res, err := timecache.RunRSAAttack(kind, keyBits, seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s ---\n", kind)
		fmt.Printf("secret key: %s\n", res.KeyBits)
		fmt.Printf("recovered : %s\n", res.RecoveredBits)
		fmt.Printf("accuracy  : %.1f%%   probe hits: %d   victim result correct: %v\n\n",
			res.Accuracy*100, res.Hits, res.VictimCorrect)
	}

	fmt.Println("The victim's modular exponentiation is bit-exact in both runs —")
	fmt.Println("TimeCache removes the side channel, not the computation.")

	// The evict+reload variant needs no clflush: the attacker displaces the
	// monitored lines with LLC eviction sets it constructed itself.
	er, err := timecache.RunEvictReloadAttack("timecache", 48, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nevict+reload under TimeCache: %d probe hits (accuracy %.1f%%) — also blind\n",
		er.Hits, er.Accuracy*100)
}
