package evlog

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Level is an event's severity. Events below a Logger's minimum level
// are dropped before encoding.
type Level int8

// Levels, in increasing severity.
const (
	Debug Level = iota
	Info
	Warn
	Error
)

// String returns the level's lowercase wire form.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// Attr is one ordered key/value pair attached to an event. Values are
// strings on the wire in both encodings; the typed constructors below
// render numbers and booleans canonically, so greps and parsers see one
// spelling per type.
type Attr struct {
	Key   string
	Value string
}

// String returns a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int returns an integer-valued attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// Int64 returns an integer-valued attribute.
func Int64(key string, v int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(v, 10)}
}

// Bool returns a boolean-valued attribute ("true"/"false").
func Bool(key string, v bool) Attr {
	return Attr{Key: key, Value: strconv.FormatBool(v)}
}

// Dur returns a duration-valued attribute, rendered as Go duration
// syntax rounded to microseconds ("1.234ms") — the same rounding the
// request log has always used.
func Dur(key string, d time.Duration) Attr {
	return Attr{Key: key, Value: d.Round(time.Microsecond).String()}
}

// Encoding selects the wire format of a Logger.
type Encoding int8

const (
	// Logfmt renders one space-separated key=value line per event,
	// quoting values that contain spaces, quotes, or '=' (and empty
	// values), so lines stay grep- and cut-friendly.
	Logfmt Encoding = iota
	// JSON renders one JSON object per line with keys in emission order
	// (time, level, event, then attrs), values all strings.
	JSON
)

// ParseEncoding maps the -log-format spellings to an Encoding.
// "text" is deliberately not an Encoding: it selects the legacy
// unstructured request line and never reaches this package.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "logfmt":
		return Logfmt, nil
	case "json":
		return JSON, nil
	default:
		return 0, fmt.Errorf("evlog: unknown encoding %q (logfmt or json)", s)
	}
}

// Options configure a Logger. The zero value is logfmt at Debug level
// with the real clock.
type Options struct {
	// Encoding selects the wire format (default Logfmt).
	Encoding Encoding
	// MinLevel drops events below this severity (default Debug: keep
	// everything).
	MinLevel Level
	// Now overrides the clock, for deterministic test output (default
	// time.Now).
	Now func() time.Time
}

// Logger is a structured, leveled event logger. Each event is one line:
// a timestamp, a level, an event name, and ordered key/value attributes
// — the lifecycle log behind specserve's pool, caches, and audit
// batcher, with trace_id attrs correlating lines to /v1/traces.
//
// A nil *Logger is a valid no-op receiver for every method, so call
// sites thread one pointer through unconditionally instead of branching
// on "is logging on".
//
// All methods are safe for concurrent use; lines are written atomically
// (one Write per event) under an internal lock.
type Logger struct {
	mu      sync.Mutex
	w       io.Writer
	enc     Encoding
	min     Level
	now     func() time.Time
	buckets map[string]*tokenBucket
}

// New returns a Logger writing to w.
func New(w io.Writer, opts Options) *Logger {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Logger{
		w:       w,
		enc:     opts.Encoding,
		min:     opts.MinLevel,
		now:     opts.Now,
		buckets: map[string]*tokenBucket{},
	}
}

// tokenBucket rate-limits one event name: burst tokens, refilled at
// rate per second. Events emitted without a token are counted, and the
// count is attached (dropped=N) to the next event that gets one, so a
// sampled log still accounts for every occurrence.
type tokenBucket struct {
	tokens  float64
	burst   float64
	rate    float64 // tokens per second
	last    time.Time
	dropped int64
}

// Sample installs token-bucket sampling for one event name: up to
// burst events pass immediately, refilled at perSec per second; excess
// events are dropped and counted, and the next emitted event of that
// name carries a dropped=N attribute covering the gap. Use for
// high-rate events (per-request cache hits) whose aggregate lives in
// /metrics anyway. Returns the logger for chaining. No-op on nil.
func (l *Logger) Sample(event string, burst int, perSec float64) *Logger {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	l.buckets[event] = &tokenBucket{
		tokens: float64(burst), burst: float64(burst), rate: perSec,
	}
	l.mu.Unlock()
	return l
}

// Log emits one event at the given level. Attrs render in argument
// order after the time/level/event preamble.
func (l *Logger) Log(level Level, event string, attrs ...Attr) {
	if l == nil || level < l.min {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	var dropped int64
	if b := l.buckets[event]; b != nil {
		if !b.take(now) {
			b.dropped++
			return
		}
		dropped, b.dropped = b.dropped, 0
	}
	line := l.encode(now, level, event, attrs, dropped)
	_, _ = l.w.Write(line)
}

// take refills and consumes one token; false means the event is
// sampled out.
func (b *tokenBucket) take(now time.Time) bool {
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Debug emits a Debug-level event.
func (l *Logger) Debug(event string, attrs ...Attr) { l.Log(Debug, event, attrs...) }

// Info emits an Info-level event.
func (l *Logger) Info(event string, attrs ...Attr) { l.Log(Info, event, attrs...) }

// Warn emits a Warn-level event.
func (l *Logger) Warn(event string, attrs ...Attr) { l.Log(Warn, event, attrs...) }

// Error emits an Error-level event.
func (l *Logger) Error(event string, attrs ...Attr) { l.Log(Error, event, attrs...) }

func (l *Logger) encode(now time.Time, level Level, event string, attrs []Attr, dropped int64) []byte {
	ts := now.UTC().Format(time.RFC3339Nano)
	switch l.enc {
	case JSON:
		return encodeJSON(ts, level, event, attrs, dropped)
	default:
		return encodeLogfmt(ts, level, event, attrs, dropped)
	}
}

// needsQuote reports whether a logfmt value must be quoted: empty, or
// containing a space, quote, equals sign, or control character.
func needsQuote(v string) bool {
	if v == "" {
		return true
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c <= ' ' || c == '"' || c == '=' || c == 0x7f {
			return true
		}
	}
	return false
}

func appendLogfmtValue(b []byte, v string) []byte {
	if !needsQuote(v) {
		return append(b, v...)
	}
	return strconv.AppendQuote(b, v)
}

func encodeLogfmt(ts string, level Level, event string, attrs []Attr, dropped int64) []byte {
	b := make([]byte, 0, 96+24*len(attrs))
	b = append(b, "time="...)
	b = append(b, ts...)
	b = append(b, " level="...)
	b = append(b, level.String()...)
	b = append(b, " event="...)
	b = appendLogfmtValue(b, event)
	for _, a := range attrs {
		b = append(b, ' ')
		b = append(b, a.Key...)
		b = append(b, '=')
		b = appendLogfmtValue(b, a.Value)
	}
	if dropped > 0 {
		b = append(b, " dropped="...)
		b = strconv.AppendInt(b, dropped, 10)
	}
	return append(b, '\n')
}

func appendJSONString(b []byte, v string) []byte {
	// json.Marshal of a string cannot fail and gives exactly the quoted,
	// escaped form the exposition needs.
	enc, _ := json.Marshal(v)
	return append(b, enc...)
}

func encodeJSON(ts string, level Level, event string, attrs []Attr, dropped int64) []byte {
	b := make([]byte, 0, 128+32*len(attrs))
	b = append(b, `{"time":`...)
	b = appendJSONString(b, ts)
	b = append(b, `,"level":`...)
	b = appendJSONString(b, level.String())
	b = append(b, `,"event":`...)
	b = appendJSONString(b, event)
	for _, a := range attrs {
		b = append(b, ',')
		b = appendJSONString(b, a.Key)
		b = append(b, ':')
		b = appendJSONString(b, a.Value)
	}
	if dropped > 0 {
		b = append(b, `,"dropped":`...)
		b = appendJSONString(b, strconv.FormatInt(dropped, 10))
	}
	return append(b, "}\n"...)
}
