/* Included ahead of src/vrrw/_walk.c (cc -include) to build a test copy of the
 * compiled library whose log1p returns -0.5 for its first two calls: the first
 * race of a clock walk on K3 then ends in an exact tie. */
#include <math.h>

static int tied_calls = 2;

static double tied_log1p(double x)
{
    if (tied_calls) {
        tied_calls--;
        return -0.5;
    }
    return log1p(x);
}

#define log1p tied_log1p
