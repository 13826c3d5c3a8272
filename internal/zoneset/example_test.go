package zoneset_test

import (
	"fmt"
	"strings"

	"darkdns/internal/zoneset"
)

func ExampleStreamDiff() {
	old := "$ORIGIN shop.\nalpha 3600 IN NS ns1.example.net.\n"
	new := old + "beta 3600 IN NS ns1.example.net.\n"

	zoneset.StreamDiff(strings.NewReader(old), strings.NewReader(new), "shop", func(kind zoneset.DiffKind, domain string) {
		fmt.Println(kind, domain)
	})
	// Output:
	// added beta.shop
}
