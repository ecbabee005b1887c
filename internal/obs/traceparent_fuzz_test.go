package obs

import "testing"

// FuzzParseTraceparent fuzzes the decoder of the untrusted traceparent
// request header. It must never panic; an accepted header never yields an
// all-zero trace or span id, and the accepted context re-renders (as
// version 00) to a header that parses back to the same context. The seed
// corpus lives in testdata/fuzz/FuzzParseTraceparent.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, header string) {
		tc, ok := ParseTraceparent(header)
		if !ok {
			if tc != (TraceContext{}) {
				t.Fatalf("rejected %q returned non-zero context %+v", header, tc)
			}
			return
		}
		if tc.TraceID.IsZero() || tc.SpanID.IsZero() {
			t.Fatalf("accepted %q with an all-zero id: %+v", header, tc)
		}
		back, ok := ParseTraceparent(tc.Traceparent())
		if !ok || back != tc {
			t.Fatalf("%q -> %+v -> %q -> %+v (ok=%v)", header, tc, tc.Traceparent(), back, ok)
		}
	})
}
