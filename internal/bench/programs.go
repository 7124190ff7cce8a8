// Package bench contains the Mini-C benchmark suite of the paper's
// evaluation: the nine Table II programs (banner, bubblesort, cal,
// dhrystone, dot-product, iir, quicksort, sieve, whetstone), the 5th
// Livermore loop of Table I, and the harness that compiles and runs
// them on the simulated WM machine at each optimization level.
//
// The original sources are period Unix/benchmark programs; these are
// functionally equivalent rewrites in the Mini-C subset (no structs,
// one-dimensional arrays).  Each program prints a small checksum so
// that every optimization level can be verified to compute the same
// result.
package bench

// Program is one benchmark.
type Program struct {
	Name   string
	Source string
	// Expect is the exact expected output, or "" when only
	// cross-level agreement is checked.
	Expect string
}

// Livermore5 returns the 5th Livermore loop (tri-diagonal elimination
// below the diagonal), the paper's running example, with the given
// array size.
func Livermore5(n int) Program {
	return Program{
		Name: "livermore5",
		Source: `
double x[` + itoa(n) + `], y[` + itoa(n) + `], z[` + itoa(n) + `];
int n = ` + itoa(n) + `;

void setup(void) {
    int i;
    for (i = 0; i < n; i++) {
        x[i] = (i % 9) * 0.25 + 1.0;
        y[i] = (i % 7) * 0.5 + 2.0;
        z[i] = (i % 5) * 0.125 + 0.5;
    }
}

void kernel(void) {
    int i;
    for (i = 2; i < n; i++)
        x[i] = z[i] * (y[i] - x[i-1]);
}

int main(void) {
    double sum;
    int i;
    setup();
    kernel();
    sum = 0.0;
    for (i = 0; i < n; i++)
        sum = sum + x[i];
    putd(sum);
    return 0;
}
`,
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// Programs returns the nine Table II benchmarks.
func Programs() []Program {
	return []Program{
		Banner, Bubblesort, Cal, Dhrystone, DotProduct,
		IIR, Quicksort, Sieve, Whetstone,
	}
}

// ByName returns the named benchmark (Table II names) or ok=false.
func ByName(name string) (Program, bool) {
	if name == "livermore5" {
		return Livermore5(100000), true
	}
	for _, p := range Programs() {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}

// Banner renders a word in large block letters, like the Unix banner
// utility: a font table is expanded into a raster buffer which is then
// printed.  The raster fill and copy loops are where streaming applies.
var Banner = Program{
	Name: "banner",
	Source: `
/* 5x7 block-letter banner. Font rows are bitmasks for A..Z. */
int font[182] = {
    14,17,17,31,17,17,17,  30,17,30,17,17,17,30,  14,17,16,16,16,17,14,
    30,17,17,17,17,17,30,  31,16,30,16,16,16,31,  31,16,30,16,16,16,16,
    14,17,16,23,17,17,14,  17,17,31,17,17,17,17,  14,4,4,4,4,4,14,
    1,1,1,1,17,17,14,      17,18,28,20,18,17,17,  16,16,16,16,16,16,31,
    17,27,21,17,17,17,17,  17,25,21,19,17,17,17,  14,17,17,17,17,17,14,
    30,17,17,30,16,16,16,  14,17,17,17,21,18,13,  30,17,17,30,20,18,17,
    14,17,16,14,1,17,14,   31,4,4,4,4,4,4,        17,17,17,17,17,17,14,
    17,17,17,17,17,10,4,   17,17,17,17,21,27,17,  17,10,4,4,4,10,17,
    17,10,4,4,4,4,4,       31,1,2,4,8,16,31
};
char msg[9] = "WMSTREAM";
char raster[378]; /* 8 chars * (5+1) cols + pad = 54 wide, 7 rows */
int width = 54;
char obuf[512];
int opos;

/* Buffered character output, like stdio putc: the call and the buffer
   bookkeeping are the non-streamable cost the real utility pays. */
void putch(int c) {
    obuf[opos] = c;
    opos = opos + 1;
}

int main(void) {
    int i, row, col, ch, bits, x0, checksum;
    /* Clear the raster (streamable write loop). */
    for (i = 0; i < 378; i++)
        raster[i] = ' ';
    /* Paint each letter. */
    for (i = 0; i < 8; i++) {
        ch = msg[i] - 'A';
        x0 = i * 6;
        for (row = 0; row < 7; row++) {
            bits = font[ch * 7 + row];
            for (col = 0; col < 5; col++) {
                if (bits & (16 >> col))
                    raster[row * width + x0 + col] = '#';
            }
        }
    }
    /* Emit through the buffered writer, computing a checksum. */
    checksum = 0;
    opos = 0;
    for (row = 0; row < 7; row++) {
        for (col = 0; col < 54; col++) {
            putch(raster[row * width + col]);
            checksum = checksum + raster[row * width + col];
        }
        putch('\n');
    }
    for (i = 0; i < opos; i++)
        putchar(obuf[i]);
    puti(checksum);
    return 0;
}
`,
}

// Bubblesort sorts integers.  In the swap loop the swap path reuses the
// values the compare loaded, and a[j+1]'s last value, loaded or swapped
// in, is carried in a register to the next iteration's a[j], so each
// iteration loads one element, a[j+1].  The swap stores the old carry
// into a[j+1], so the carry stays where the swap leaves it: it takes
// the loaded a[j+1] only on the edge that does not swap, and the loop
// has no copy at its top.  The conditional exchange writes only behind
// that read (a[j], and a[j+1] after it is read), so the read streams
// while the stores stay scalar.  The swap arm's address of a is hoisted
// to the outer preheader, which the swap loop's preheader reuses, and
// a[j+1]'s offset is folded into a second base, so the arm's stores
// need no address instruction of their own.  The fill and checksum
// loops stream.
var Bubblesort = Program{
	Name: "bubblesort",
	Source: `
int a[500];
int n = 500;

int main(void) {
    int i, j, t, sum;
    for (i = 0; i < n; i++)
        a[i] = (n - i) * 7 % 101;
    for (i = 0; i < n - 1; i++) {
        for (j = 0; j < n - 1 - i; j++) {
            if (a[j] > a[j+1]) {
                t = a[j];
                a[j] = a[j+1];
                a[j+1] = t;
            }
        }
    }
    sum = 0;
    for (i = 0; i < n; i++)
        sum = sum + a[i] * i;
    /* sorted check */
    for (i = 1; i < n; i++)
        if (a[i-1] > a[i])
            sum = -1;
    puti(sum);
    return 0;
}
`,
}

// Cal prints a year calendar, like the Unix cal utility the paper
// compiled: month grids are composed into line buffers (strided copies
// the optimizer can stream) and printed.
var Cal = Program{
	Name: "cal",
	Source: `
int mlen[12] = {31,28,31,30,31,30,31,31,30,31,30,31};
char grid[768];   /* 12 months * 64 bytes: 6 rows x 7 cols + pad */
char line[128];
int checksum;

void build(int month, int firstday) {
    int d, pos, len;
    len = mlen[month];
    for (pos = 0; pos < 64; pos++)
        grid[month * 64 + pos] = 0;
    for (d = 1; d <= len; d++) {
        pos = firstday + d - 1;
        grid[month * 64 + pos] = d;
    }
}

void emit(int month) {
    int row, col, v;
    for (row = 0; row < 6; row++) {
        for (col = 0; col < 7; col++) {
            v = grid[month * 64 + row * 7 + col];
            if (v == 0) {
                putchar(' ');
                putchar(' ');
            } else {
                if (v < 10)
                    putchar(' ');
                else
                    putchar('0' + v / 10);
                putchar('0' + v % 10);
            }
            putchar(' ');
            checksum = checksum + v * (col + 1);
        }
        putchar('\n');
    }
}

int main(void) {
    int m, first;
    first = 3; /* 1991 began on a Tuesday(2); use 3 for display offset */
    checksum = 0;
    for (m = 0; m < 12; m++) {
        build(m, first % 7);
        first = first + mlen[m];
    }
    for (m = 0; m < 12; m++)
        emit(m);
    puti(checksum);
    return 0;
}
`,
}

// Dhrystone is a synthetic systems benchmark in the spirit of the
// original: integer arithmetic, array indexing, function calls, and
// repeated buffer copies (the copies are what streaming accelerates).
var Dhrystone = Program{
	Name: "dhrystone",
	Source: `
int arr1[16];
int arr2[16];
char buf1[32] = "DHRYSTONE PROGRAM, SOME";
char buf2[32];
int intglob;

int func1(int a, int b) {
    int c;
    c = a + b;
    if (c > 30)
        return c - 30;
    return c;
}

int func2(int x) {
    int i, acc;
    acc = x;
    for (i = 0; i < 40; i++) {
        if (acc & 1)
            acc = acc * 3 + 1;
        else
            acc = acc / 2;
        if (acc == 0)
            acc = i + 7;
    }
    return acc;
}

void proc1(int x) {
    int i;
    for (i = 0; i < 16; i++)
        arr1[i] = x + i;
    for (i = 0; i < 16; i++)
        arr2[i] = arr1[i] + x;
    intglob = arr2[10];
}

void strcopy(void) {
    int i;
    for (i = 0; i < 32; i++)
        buf2[i] = buf1[i];
}

int main(void) {
    int run, i, sum;
    sum = 0;
    for (run = 0; run < 50; run++) {
        proc1(run);
        strcopy();
        sum = sum + func1(run % 17, run % 13);
        sum = sum + func2(run + 3) % 11;
        sum = sum + func2(sum & 1023) % 13;
        sum = sum + intglob % 7;
    }
    for (i = 0; i < 20; i++)
        sum = sum + buf2[i];
    puti(sum);
    return 0;
}
`,
}

// DotProduct is the paper's headline example: with streams the loop is
// a single FEU instruction plus a free branch.
var DotProduct = Program{
	Name: "dot-product",
	Source: `
double a[4096], b[4096];
int n = 4096;

int main(void) {
    int i, pass;
    double sum;
    for (i = 0; i < n; i++) {
        a[i] = (i % 10) * 0.5 + 0.25;
        b[i] = (i % 8) * 0.25 + 0.5;
    }
    sum = 0.0;
    for (pass = 0; pass < 4; pass++)
        for (i = 0; i < n; i++)
            sum = sum + a[i] * b[i];
    putd(sum);
    return 0;
}
`,
}

// IIR is a direct-form-II-ish infinite impulse response filter: the
// output recurrence y[i-1] is carried in a register (recurrence
// optimization) and the x taps plus the y writes stream.
var IIR = Program{
	Name: "iir",
	Source: `
double x[4096], y[4096];
int n = 4096;

int main(void) {
    int i;
    double b0, b1, a1, sum;
    b0 = 0.2929;
    b1 = 0.2929;
    a1 = -0.4142;
    for (i = 0; i < n; i++)
        x[i] = ((i % 16) - 8) * 0.125;
    y[0] = b0 * x[0];
    for (i = 1; i < n; i++)
        y[i] = b0 * x[i] + b1 * x[i-1] - a1 * y[i-1];
    sum = 0.0;
    for (i = 0; i < n; i++)
        sum = sum + y[i];
    putd(sum);
    return 0;
}
`,
}

// Quicksort is recursive and pointer-driven, like the original qsort:
// every access inside the sort goes through a pointer parameter, whose
// region the partitioning step cannot name.  The scan loops
// (while (a[i] < pivot) i++) store nothing, so their reads stream on
// the infinite path.  Each stream starts from the element its guard
// loads, so the guard's compare dequeues it, and the j scan's stream
// starts beside the i scan's at the top of the partition loop, on the
// other FIFO.  The exchange writes a[i] and a[j], so its reads stay
// scalar (the paper measured 1%).
var Quicksort = Program{
	Name: "quicksort",
	Source: `
int data[2000];
int n = 2000;

void qsort2(int *a, int lo, int hi) {
    int i, j, pivot, t;
    if (lo >= hi)
        return;
    pivot = a[(lo + hi) / 2];
    i = lo;
    j = hi;
    while (i <= j) {
        while (a[i] < pivot) i++;
        while (a[j] > pivot) j--;
        if (i <= j) {
            t = a[i];
            a[i] = a[j];
            a[j] = t;
            i++;
            j--;
        }
    }
    qsort2(a, lo, j);
    qsort2(a, i, hi);
}

int main(void) {
    int i, sum;
    for (i = 0; i < n; i++)
        data[i] = (i * 1103515245 + 12345) % 10007;
    qsort2(data, 0, n - 1);
    sum = 0;
    for (i = 0; i < n; i++)
        sum = sum + data[i] % 97;
    for (i = 1; i < n; i++)
        if (data[i-1] > data[i])
            sum = -1;
    puti(sum);
    return 0;
}
`,
}

// Sieve of Eratosthenes: the flag-initialization loop streams, and so
// does the marking loop, with the prime as a register stride.  The
// prime loop's read of flags[i] streams too: the stream stops as the
// if (flags[i]) arm begins, before the marking loop clears multiples
// of i, and restarts at flags[i+1] when the arm ends (the restart
// rule).  The bound n stays in a register across the prime loop: the
// marking loop's stores go to flags, another region.
var Sieve = Program{
	Name: "sieve",
	Source: `
char flags[8192];
int n = 8192;

int main(void) {
    int i, k, count, iter;
    count = 0;
    for (iter = 0; iter < 10; iter++) {
        for (i = 0; i < n; i++)
            flags[i] = 1;
        count = 0;
        for (i = 2; i < n; i++) {
            if (flags[i]) {
                count++;
                for (k = i + i; k < n; k = k + i)
                    flags[k] = 0;
            }
        }
    }
    puti(count);
    return 0;
}
`,
	Expect: "1028",
}

// Whetstone-like: floating-point modules dominated by transcendental
// operations, with small cyclic array references — little for
// streaming to do (the paper measured 3%).
var Whetstone = Program{
	Name: "whetstone",
	Source: `
double e1[4];
double v1[64], v2[64];
int j, k, l;

void p3(double x, double y) {
    double xt, yt, t, t2;
    t = 0.499975;
    t2 = 2.0;
    xt = t * (x + y);
    yt = t * (xt + y);
    e1[2] = (xt + yt) / t2;
}

void pa(void) {
    int i;
    double t, t2;
    t = 0.499975;
    t2 = 2.0;
    i = 0;
    while (i < 6) {
        e1[0] = (e1[0] + e1[1] + e1[2] - e1[3]) * t;
        e1[1] = (e1[0] + e1[1] - e1[2] + e1[3]) * t;
        e1[2] = (e1[0] - e1[1] + e1[2] + e1[3]) * t;
        e1[3] = (-e1[0] + e1[1] + e1[2] + e1[3]) / t2;
        i++;
    }
}

int main(void) {
    int i, nloops;
    double x, y, z, t;
    nloops = 200;
    t = 0.499975;
    e1[0] = 1.0;
    e1[1] = -1.0;
    e1[2] = -1.0;
    e1[3] = -1.0;
    /* module 1: simple identifiers */
    x = 1.0;
    y = -1.0;
    z = -1.0;
    for (i = 0; i < nloops; i++) {
        x = (x + y + z) * t;
        y = (x + y - z) * t;
        z = (x - y + z) * t;
    }
    /* module 2: array elements */
    for (i = 0; i < nloops; i++)
        pa();
    /* module 7: trig */
    x = 0.5;
    y = 0.5;
    for (i = 0; i < nloops; i++) {
        x = t * atan(2.0 * sin(x) * cos(x) / (cos(x + y) + cos(x - y) - 1.0));
        y = t * atan(2.0 * sin(y) * cos(y) / (cos(x + y) + cos(x - y) - 1.0));
    }
    /* module 8: sqrt/exp/log */
    x = 0.75;
    for (i = 0; i < nloops; i++)
        x = sqrt(exp(log(x + 1.0) / 2.0));
    /* module 6-like: a short vector pass (the only streamable part) */
    for (i = 0; i < 64; i++)
        v1[i] = (i & 3) * 0.25;
    for (i = 0; i < 64; i++)
        v2[i] = v1[i] * t + 0.125;
    for (i = 0; i < 64; i++)
        x = x + v2[i] * 0.001;
    p3(x, y);
    putd(x + y + z + e1[2]);
    return 0;
}
`,
}
