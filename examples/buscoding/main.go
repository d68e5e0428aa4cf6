// The buscoding example reproduces the Section 3.2 potential study on user
// data: it builds optimal static (8,k) limited-weight codes from the
// byte-value distribution of a file (or a built-in text sample) and reports
// how many zeros each code would transmit relative to the raw bytes and to
// DBI - the headroom that motivates MiL.
//
// Usage: buscoding [file]
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"mil/internal/code"
)

func main() {
	data := []byte(strings.Repeat(
		"The quick brown fox jumps over the lazy dog. 0123456789 -- ", 200))
	if len(os.Args) > 1 {
		var err error
		data, err = os.ReadFile(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("input: %s (%d bytes)\n", os.Args[1], len(data))
	} else {
		fmt.Printf("input: built-in text sample (%d bytes)\n", len(data))
	}

	var freq [256]uint64
	for _, b := range data {
		freq[b]++
	}
	raw := float64(code.RawZeros(&freq))
	if raw == 0 {
		log.Fatal("input has no zeros to save")
	}

	fmt.Printf("\n%-8s %12s %14s %16s\n", "code", "bits/byte", "zeros vs raw", "zeros vs DBI")
	dbi := float64(code.DBIZeros(&freq))
	fmt.Printf("%-8s %12d %13.1f%% %15.1f%%\n", "raw", 8, 100.0, 100*raw/dbi)
	fmt.Printf("%-8s %12d %13.1f%% %15.1f%%\n", "dbi", 9, 100*dbi/raw, 100.0)
	for k := 9; k <= 17; k++ {
		c, err := code.NewLowWeightCode(k, &freq)
		if err != nil {
			log.Fatal(err)
		}
		z := float64(c.WeightedZeros(&freq))
		fmt.Printf("(8,%-2d) %13d %13.1f%% %15.1f%%\n", k, k, 100*z/raw, 100*z/dbi)
	}
	fmt.Println("\nwider codewords cost bandwidth; MiL spends idle bus cycles to get them free")
}
