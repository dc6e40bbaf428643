/* The off-by-one twin of safe_fill: the loop runs one step too far and
   the final write lands at buf[SIZE]. */

#define SIZE 64

void fill(void)
{
    char buf[SIZE];
    int i;

    i = 0;
loop:
    if (i > SIZE) goto done;
    buf[i] = 'x';
    i = i + 1;
    goto loop;
done:
    ;
}
