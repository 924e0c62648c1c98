package serve

import (
	"net/url"
	"testing"
)

// querySeeds are (raw query, key) pairs covering what url.ParseQuery treats
// specially: escaped keys and values, '+', ';', repeated keys, empty values,
// bad escapes and empty segments.
var querySeeds = []struct{ raw, key string }{
	{"h=4&node=17", "h"},
	{"h=4&node=17", "node"},
	{"h=4&node=17", "x"},
	{"", "h"},
	{"h", "h"},
	{"h=", "h"},
	{"h=&h=3", "h"},
	{"h=2&h=3", "h"},
	{"%68=5", "h"},
	{"n%6fde=9", "node"},
	{"h=%34%32", "h"},
	{"h=1+2", "h"},
	{"a+b=c", "a b"},
	{"h=1;node=2", "h"},
	{"h=1;x&h=2", "h"},
	{"h=%zz&h=7", "h"},
	{"%zz=1&h=8", "h"},
	{"h=%2", "h"},
	{"&&h=6&&", "h"},
	{"=5&h=1", ""},
	{"h==4", "h"},
	{"h=4=5", "h"},
	{"%2B=plus", "+"},
	{"h=%00", "h"},
}

func TestQueryGet(t *testing.T) {
	t.Parallel()
	for _, q := range querySeeds {
		vals, _ := url.ParseQuery(q.raw)
		if got, want := queryGet(q.raw, q.key), vals.Get(q.key); got != want {
			t.Errorf("queryGet(%q, %q) = %q, want %q", q.raw, q.key, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = queryGet("h=4&node=17", "node") }); n != 0 {
		t.Errorf("unescaped queryGet allocates %v times, want 0", n)
	}
}

// FuzzQueryGet checks queryGet against url.ParseQuery(raw).Get(key) on
// arbitrary queries and keys.
func FuzzQueryGet(f *testing.F) {
	for _, q := range querySeeds {
		f.Add(q.raw, q.key)
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		vals, _ := url.ParseQuery(raw)
		if got, want := queryGet(raw, key), vals.Get(key); got != want {
			t.Fatalf("queryGet(%q, %q) = %q, want %q", raw, key, got, want)
		}
	})
}
